//===- SimWorkload.cpp - sim-paper: simulate the paper's kernels -----------===//
//
// Every real and synthetic paper kernel at every paper block size, under
// two pipelines: `baseline` (simplifycfg + dce) and `darm` (DARMConfig(),
// the paper's comparison). Each cell is compiled once in setup through a
// CompileService, as the sweep tools do on repeat, and simulated once from
// a fresh decode of its melded module: that reference pass fixes the
// SimStats and memory-image hash every later run of the cell must equal.
//
// The timed loop cycles through the cells, each cycle in a new seeded
// order, whole cycles only. One cell is one request: decode the
// artifact's program image, construct the engine, run every launch,
// validate against the host reference and hash the memory image.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "darm/core/CompileService.h"
#include "darm/ir/Context.h"
#include "darm/ir/Module.h"
#include "darm/kernels/Benchmark.h"
#include "darm/sim/Simulator.h"
#include "darm/support/RNG.h"
#include "darm/transform/DCE.h"
#include "darm/transform/SimplifyCFG.h"

#include <algorithm>
#include <memory>
#include <set>

using namespace darm;
using namespace perfbench;

namespace {

struct CellOutcome {
  SimStats Stats;
  EngineStats Engine;
  uint64_t MemHash = 0;
  bool Valid = false;
  std::string Why;
};

struct Cell {
  std::string Bench;
  unsigned BlockSize = 0;
  bool Darm = false;
  std::unique_ptr<Benchmark> B;
  CompileService::Artifact Art;
  /// Span name "sim.run.<bench>", interned in the workload's name set.
  const char *RunSpan = "";
  CellOutcome Ref;
};

bool sameStats(const SimStats &A, const SimStats &B) {
  for (unsigned I = 0; I < SimStats::NumCounters; ++I)
    if (A.counter(I) != B.counter(I))
      return false;
  return true;
}

/// runBenchmark's launches and validation, with a span around each call.
CellOutcome simulateCell(const Cell &C, SimEngine &Engine, Tracer *T,
                         uint64_t Req) {
  CellOutcome R;
  GlobalMemory Mem;
  std::vector<uint64_t> Base;
  {
    Span S(T, "kernels.setup", Req);
    Base = C.B->setup(Mem);
  }
  for (unsigned L = 0, E = C.B->numLaunches(); L != E; ++L) {
    const std::vector<uint64_t> Args = C.B->argsForLaunch(L, Base);
    {
      Span S(T, C.RunSpan, Req);
      R.Stats += Engine.run(C.B->launch(), Args, Mem);
    }
    const EngineStats &ES = Engine.engineStats();
    R.Engine.TraceRuns += ES.TraceRuns;
    R.Engine.TraceInstrs += ES.TraceInstrs;
    R.Engine.BatchedTraceInstrs += ES.BatchedTraceInstrs;
  }
  {
    Span S(T, "kernels.validate", Req);
    R.Valid = C.B->validate(Mem, Base, &R.Why);
    R.MemHash = hashMemoryImage(Mem);
  }
  return R;
}

struct SimPaper {
  std::set<std::string> Names;
  std::vector<Cell> Cells;
  std::unique_ptr<CompileService> Svc;
  uint64_t SetupFailures = 0;

  void setup() {
    Svc = std::make_unique<CompileService>();
    std::vector<std::string> Benches = realBenchmarkNames();
    for (const std::string &N : syntheticBenchmarkNames())
      Benches.push_back(N);
    for (const std::string &Name : Benches) {
      const char *RunSpan = Names.insert("sim.run." + Name).first->c_str();
      for (unsigned BS : paperBlockSizes(Name))
        for (bool Darm : {false, true}) {
          Cell C;
          C.Bench = Name;
          C.BlockSize = BS;
          C.Darm = Darm;
          C.RunSpan = RunSpan;
          C.B = createBenchmark(Name, BS);
          Context Ctx;
          Module M(Ctx, Name);
          Function *F = C.B->build(M);
          C.Art = Darm ? Svc->getOrCompile(*F, DARMConfig())
                       : Svc->getOrCompile(
                             *F, "perfbench-baseline;simplifycfg+dce",
                             [](Function &K, DARMStats &) {
                               simplifyCFG(K);
                               eliminateDeadCode(K);
                             });
          referencePass(C);
          Cells.push_back(std::move(C));
        }
    }
  }

  /// Simulates \p C from a fresh decode of its melded module, independent
  /// of the artifact's serialized program image the timed loop uses.
  void referencePass(Cell &C) {
    Context Ctx;
    std::string Err;
    std::unique_ptr<Module> M = moduleFromArtifact(*C.Art, Ctx, &Err);
    if (!M || M->functions().empty()) {
      note("FAIL setup %s bs=%u: %s", C.Bench.c_str(), C.BlockSize,
           Err.c_str());
      ++SetupFailures;
      return;
    }
    SimEngine Engine(*M->functions().front());
    C.Ref = simulateCell(C, Engine, nullptr, 0);
    if (!C.Ref.Valid) {
      note("FAIL reference %s bs=%u %s: %s", C.Bench.c_str(), C.BlockSize,
           C.Darm ? "darm" : "baseline", C.Ref.Why.c_str());
      ++SetupFailures;
    }
  }

  struct Phase {
    RoundTimer Cycles;
    uint64_t Instructions = 0;
    uint64_t Attempted = 0, Failed = 0;
  };

  /// Whole cycles over the cells, one round each, until \p Seconds have
  /// passed. Each cycle visits the cells in a new order drawn from
  /// \p Rng, so a run's figures do not hang on one order's cache effects.
  Phase run(RNG &Rng, double Seconds, Tracer *T) {
    Phase P;
    std::vector<size_t> Order(Cells.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    const Clock::time_point T0 = Clock::now();
    do {
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
      P.Cycles.begin();
      for (size_t Idx : Order) {
        const Cell &C = Cells[Idx];
        const uint64_t Req = P.Attempted++;
        CellOutcome Out;
        bool Decoded = false;
        const Clock::time_point C0 = Clock::now();
        {
          Span Root(T, "cell", Req);
          DecodedProgram Prog;
          {
            Span S(T, "sim.program_decode", Req);
            Decoded = decodeFromArtifact(*C.Art, Prog);
          }
          if (Decoded) {
            std::unique_ptr<SimEngine> Engine;
            {
              Span S(T, "sim.engine_init", Req);
              Engine = std::make_unique<SimEngine>(std::move(Prog));
            }
            Out = simulateCell(C, *Engine, T, Req);
          }
        }
        P.Cycles.record(secondsSince(C0) * 1e6);
        P.Instructions += Out.Stats.InstructionsIssued;
        if (!Decoded || !Out.Valid || Out.MemHash != C.Ref.MemHash ||
            !sameStats(Out.Stats, C.Ref.Stats)) {
          if (P.Failed++ < 5)
            note("FAIL %s bs=%u %s: %s", C.Bench.c_str(), C.BlockSize,
                 C.Darm ? "darm" : "baseline",
                 !Decoded     ? "program image did not decode"
                 : !Out.Valid ? Out.Why.c_str()
                              : "differs from the reference pass");
        }
      }
      P.Cycles.end();
    } while (secondsSince(T0) < Seconds);
    return P;
  }
};

} // namespace

WorkloadResult perfbench::runSimPaper(const RunOptions &O) {
  WorkloadResult R;
  SimPaper W;
  R.EndToEnd["setup_s"] = timeSetups(
      [&] {
        W.Cells.clear();
        W.Svc.reset();
      },
      [&] { W.setup(); });
  note("setup: %zu cells compiled and simulated once; setup_s is the "
       "median of %u setups",
       W.Cells.size(), kSetupReps);

  RNG Rng(O.Seed);
  const SimPaper::Phase Untraced = W.run(Rng, O.Seconds, nullptr);
  R.Attempted = Untraced.Attempted + kSetupReps * W.Cells.size();
  R.Failed = Untraced.Failed + W.SetupFailures;
  reportLatencies(R, Untraced.Cycles);

  // Cells come in (baseline, darm) pairs; see SimPaper::setup.
  SimStats Sum;
  EngineStats ES;
  std::vector<double> Ratios, Real, Synthetic;
  const std::vector<std::string> RealNames = realBenchmarkNames();
  for (size_t I = 0; I < W.Cells.size(); ++I) {
    const Cell &C = W.Cells[I];
    Sum += C.Ref.Stats;
    ES.TraceInstrs += C.Ref.Engine.TraceInstrs;
    ES.BatchedTraceInstrs += C.Ref.Engine.BatchedTraceInstrs;
    if (!C.Darm || !C.Ref.Stats.Cycles || !W.Cells[I - 1].Ref.Stats.Cycles)
      continue;
    const double Ratio = static_cast<double>(C.Ref.Stats.Cycles) /
                         static_cast<double>(W.Cells[I - 1].Ref.Stats.Cycles);
    Ratios.push_back(Ratio);
    const bool IsReal = std::find(RealNames.begin(), RealNames.end(),
                                  C.Bench) != RealNames.end();
    (IsReal ? Real : Synthetic).push_back(Ratio);
  }
  const double Secs = Untraced.Cycles.scaledSeconds();
  const double MinstrPerS = Secs > 0 ? Untraced.Instructions / Secs / 1e6 : 0;
  const double CyclesRatio = geomean(Ratios);
  note("sim_cycles_ratio=%.6f over %zu cell pairs (darm/baseline cycles); "
       "synthetic %.4f (paper Fig. 8: 1/1.36 = 0.735), real %.4f (paper "
       "Fig. 9: 1/1.15 = 0.870)",
       CyclesRatio, Ratios.size(), geomean(Synthetic), geomean(Real));
  note("sim_minstr_per_s=%.3f", MinstrPerS);
  R.EndToEnd["peak_rss_mb"] = peakRssMb();
  if (!O.Trace)
    return R;

  const SimPaper::Phase Traced =
      W.run(Rng, O.tracedSeconds(), &R.Spans);
  R.Attempted += Traced.Attempted;
  R.Failed += Traced.Failed;
  const auto Self = R.Spans.selfTimesUs(/*PerRequest=*/false);
  note("traced phase: %llu cells, %zu spans",
       static_cast<unsigned long long>(Traced.Attempted), R.Spans.size());
  reportSpan(R, Self, "sim.program_decode", "sim.program_decode_us");
  reportSpan(R, Self, "sim.engine_init", "sim.engine_init_us");
  reportSpan(R, Self, "kernels.setup", "kernels.setup_us");
  reportSpan(R, Self, "kernels.validate", "kernels.validate_us");
  std::vector<double> AllRuns;
  for (const auto &[Name, Us] : Self)
    if (Name.rfind("sim.run.", 0) == 0) {
      reportSpan(R, Self, Name, "sim.run_us." + Name.substr(8));
      AllRuns.insert(AllRuns.end(), Us.begin(), Us.end());
    }
  R.PerLayer["sim.run_us"] = median(AllRuns);
  note("  %-32s n=%-7zu p50=%.2f", "sim.run_us", AllRuns.size(),
       R.PerLayer["sim.run_us"]);

  R.PerLayer["sim.instructions"] = static_cast<double>(Sum.InstructionsIssued);
  R.PerLayer["sim.cycles"] = static_cast<double>(Sum.Cycles);
  R.PerLayer["sim.divergent_branches"] =
      static_cast<double>(Sum.DivergentBranches);
  R.PerLayer["sim.trace_instr_frac"] =
      Sum.InstructionsIssued
          ? static_cast<double>(ES.TraceInstrs) / Sum.InstructionsIssued
          : 0;
  R.PerLayer["sim.batched_trace_instrs"] =
      static_cast<double>(ES.BatchedTraceInstrs);
  R.PerLayer["sim_cycles_ratio"] = CyclesRatio;
  R.PerLayer["sim_minstr_per_s"] = MinstrPerS;
  R.PerLayer["trace.overhead_frac"] =
      median(Traced.Cycles.rawUs()) / median(Untraced.Cycles.rawUs()) - 1.0;
  return R;
}
