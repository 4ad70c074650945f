//===- main.cpp - darm_perfbench entry point ------------------------------===//
//
// Runs one workload and prints, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Without --trace
// the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, and the spans go to <work-dir>/trace-<workload>.json.
// The metric tables below must match BENCHMARK.json; the benchmark's
// own test checks that they do.
//
//   darm_perfbench --workload serve-warm|compile-paper|sim-paper
//                  --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Exit status: 0 when every output was correct, 1 when any request or
// cell failed its check, 2 on a usage or environment error.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <sched.h>

using namespace perfbench;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"req_us.p50", "us"}, {"req_us.p99", "us"},
    {"req_per_s", "1/s"},     {"ok_frac", "frac"},  {"peak_rss_mb", "MiB"},
};

const MetricSpec kPerLayer[] = {
    // serve-warm request path
    {"serve.encode_request_us", "us"},
    {"serve.decode_request_us", "us"},
    {"serve.frame_io_us", "us"},
    {"ir.parse_us", "us"},
    {"core.ir_hash_us", "us"},
    {"core.get_or_compile_us", "us"},
    {"serve.encode_response_us", "us"},
    {"serve.decode_response_us", "us"},
    {"serve.residual_us", "us"},
    {"ir.text_bytes", "bytes"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.cache_disk_hits", "count"},
    {"serve.client_retries", "count"},
    // compile-paper pipeline
    {"core.compile_us", "us"},
    {"serve.store_load_us", "us"},
    {"serve.store_write_us", "us"},
    {"transform.constprop_us", "us"},
    {"transform.algebraic_us", "us"},
    {"transform.gvn_us", "us"},
    {"transform.licm_us", "us"},
    {"transform.loop-unroll_us", "us"},
    {"transform.simplifycfg_us", "us"},
    {"core.darm-meld_us", "us"},
    {"transform.ssa-repair_us", "us"},
    {"transform.dce_us", "us"},
    {"analysis.verify_us", "us"},
    {"core.regions_melded", "count"},
    {"core.artifact_bytes", "bytes"},
    // sim-paper execution
    {"sim.program_decode_us", "us"},
    {"sim.engine_init_us", "us"},
    {"kernels.setup_us", "us"},
    {"sim.run_us", "us"},
    {"kernels.validate_us", "us"},
    {"sim.run_us.BIT", "us"},
    {"sim.run_us.PCM", "us"},
    {"sim.run_us.MS", "us"},
    {"sim.run_us.LUD", "us"},
    {"sim.run_us.NQU", "us"},
    {"sim.run_us.SRAD", "us"},
    {"sim.run_us.DCT", "us"},
    {"sim.run_us.SB1", "us"},
    {"sim.run_us.SB2", "us"},
    {"sim.run_us.SB3", "us"},
    {"sim.run_us.SB4", "us"},
    {"sim.run_us.SB1R", "us"},
    {"sim.run_us.SB2R", "us"},
    {"sim.run_us.SB3R", "us"},
    {"sim.run_us.SB4R", "us"},
    {"sim.instructions", "count"},
    {"sim.cycles", "count"},
    {"sim.divergent_branches", "count"},
    {"sim.trace_instr_frac", "frac"},
    {"sim.batched_trace_instrs", "count"},
    {"sim_cycles_ratio", "ratio"},
    {"sim_minstr_per_s", "Minstr/s"},
    // every workload
    {"trace.overhead_frac", "frac"},
};

int usage() {
  std::fprintf(stderr,
               "usage: darm_perfbench --workload serve-warm|compile-paper|"
               "sim-paper --seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RunOptions O;
  std::string Workload;
  for (int I = 1; I + 1 < argc; I += 2) {
    const char *Flag = argv[I], *Val = argv[I + 1];
    if (!std::strcmp(Flag, "--workload"))
      Workload = Val;
    else if (!std::strcmp(Flag, "--seed"))
      O.Seed = std::strtoull(Val, nullptr, 10);
    else if (!std::strcmp(Flag, "--seconds"))
      O.Seconds = std::atof(Val);
    else if (!std::strcmp(Flag, "--trace"))
      O.Trace = std::atoi(Val) != 0;
    else if (!std::strcmp(Flag, "--work-dir"))
      O.WorkDir = Val;
    else
      return usage();
  }
  if (argc % 2 == 0 || O.Seconds <= 0 || O.WorkDir.empty())
    return usage();
  std::error_code EC;
  std::filesystem::create_directories(O.WorkDir, EC);
  if (EC) {
    std::fprintf(stderr, "darm_perfbench: cannot create %s: %s\n",
                 O.WorkDir.c_str(), EC.message().c_str());
    return 2;
  }

  // Every thread of the run shares the CPU it starts on. A request then
  // passes between the client and server threads by a context switch on
  // that CPU, and never waits for an idle vCPU to wake, which on a shared
  // host takes as long as the host's load makes it.
  cpu_set_t One;
  CPU_ZERO(&One);
  const int Cpu = ::sched_getcpu();
  CPU_SET(Cpu < 0 ? 0 : Cpu, &One);
  if (::sched_setaffinity(0, sizeof(One), &One) != 0)
    note("could not pin to CPU %d; threads run where the kernel puts them",
         Cpu);

  WorkloadResult R;
  if (Workload == "serve-warm")
    R = runServeWarm(O);
  else if (Workload == "compile-paper")
    R = runCompilePaper(O);
  else if (Workload == "sim-paper")
    R = runSimPaper(O);
  else
    return usage();

  R.EndToEnd["ok_frac"] =
      R.Attempted ? 1.0 - static_cast<double>(R.Failed) / R.Attempted : 0;
  if (O.Trace) {
    // Enough for a viewer; the per-layer metrics use every span.
    const size_t MaxSpans = 200000;
    const std::string Path = O.WorkDir + "/trace-" + Workload + ".json";
    if (!R.Spans.writeChromeJson(Path, MaxSpans)) {
      std::fprintf(stderr, "darm_perfbench: cannot write %s\n", Path.c_str());
      return 2;
    }
    note("trace: the first %zu of %zu spans in %s",
         std::min(R.Spans.size(), MaxSpans), R.Spans.size(), Path.c_str());
  }

  const bool Correct = R.Failed == 0 && R.Attempted > 0;
  const MetricMap &Values = O.Trace ? R.PerLayer : R.EndToEnd;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  bool First = true;
  auto Emit = [&](const MetricSpec &M) {
    auto It = Values.find(M.Name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", M.Name,
                It == Values.end() ? 0.0 : It->second, M.Unit);
    First = false;
  };
  if (O.Trace)
    for (const MetricSpec &M : kPerLayer)
      Emit(M);
  else
    for (const MetricSpec &M : kEndToEnd)
      Emit(M);
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
