//===- ServeWorkloads.cpp - serve-warm and compile-paper -------------------===//
//
// Both workloads run one closed-loop serve::Client over a Unix socket to
// a SocketServer in this process: the client thread and the server's
// session thread are the only busy threads.
//
//   serve-warm    the 21 keys of bench/serve_throughput (7 real kernels x
//                 darm, darm-canon, branch-fusion), requested in a seeded
//                 order after setup warmed the cache: every request is a
//                 memory hit.
//   compile-paper every distinct paper kernel under DARMConfig() and
//                 withCanonicalization(), in seeded rounds that each start
//                 from an empty cache: every request is a miss.
//
// A request is timed from Client::request to its decoded response. Every
// response is byte-compared against an in-process compileToArtifact of
// the same (kernel, config), made in setup; the latency clock stops
// before the comparison.
//
// The traced phase interleaves a traced socket request with an
// in-process replay of one request, call by call: encodeRequest,
// writeFrame/readFrame over a socket pair, decodeRequest, parseModule,
// CompileService::getOrCompile, encodeResponse, frame I/O back,
// decodeResponse. That is the server's serveRequest path plus the
// client's framing, one span per call, so self times add up to the
// in-process request. artifactIRHash is timed after the request, outside
// it, because getOrCompile already hashes the kernel once inside.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "darm/core/CompileService.h"
#include "darm/ir/Context.h"
#include "darm/ir/IRParser.h"
#include "darm/ir/IRPrinter.h"
#include "darm/ir/Module.h"
#include "darm/kernels/Benchmark.h"
#include "darm/serve/ArtifactStore.h"
#include "darm/serve/Client.h"
#include "darm/serve/Server.h"
#include "darm/support/Hashing.h"
#include "darm/support/RNG.h"

#include <filesystem>
#include <unordered_set>

#include <sys/socket.h>
#include <unistd.h>

using namespace darm;
using namespace darm::serve;
using namespace perfbench;

namespace {

/// One request with the serialized artifact its response must equal.
struct Key {
  CompileRequest Req;
  std::vector<uint8_t> Expect;
};

Key makeKey(const Function &F, const DARMConfig &Cfg) {
  Key K;
  K.Req.Cfg = Cfg;
  K.Req.IRText = printFunction(F);
  K.Expect = serializeCompiledModule(compileToArtifact(F, Cfg));
  return K;
}

/// A path in the work directory no other endpoint or store of this run
/// uses.
std::string workPath(const RunOptions &O, const std::string &Tag,
                     const char *Suffix) {
  static unsigned Instances = 0;
  return O.WorkDir + "/" + Tag + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(Instances++) + Suffix;
}

/// A SocketServer on a Unix socket in the work directory, one Client
/// connected to it, and a socket pair for the in-process replay's frames.
class Endpoint {
public:
  Endpoint(const RunOptions &O, const std::string &Tag) {
    SocketPath = workPath(O, Tag, ".sock");
    ::unlink(SocketPath.c_str());
    SocketServer::Options SO;
    SO.MaxConnections = 4;
    Server = std::make_unique<SocketServer>(Svc, &Counters, SO);
    const int ListenFd = listenUnixSocket(SocketPath, &Error);
    if (ListenFd < 0 || !Server->start(ListenFd)) {
      Error = "cannot serve on " + SocketPath + ": " + Error;
      return;
    }
    ClientOptions CO;
    CO.Endpoint = SocketPath;
    CO.RequestTimeoutMs = 60000;
    Cli = std::make_unique<Client>(CO);
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair) != 0) {
      Error = "socketpair failed";
      return;
    }
    // Frames of the replay are written before they are read, on one
    // thread, so each must fit in the pair's buffer.
    const int Buf = 4 << 20;
    for (int Fd : Pair) {
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &Buf, sizeof(Buf));
      ::setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &Buf, sizeof(Buf));
    }
    socklen_t Len = sizeof(PairBytes);
    ::getsockopt(Pair[0], SOL_SOCKET, SO_SNDBUF, &PairBytes, &Len);
  }

  ~Endpoint() {
    Cli.reset();
    if (Server)
      Server->drain(/*DeadlineMs=*/5000);
    Server.reset();
    for (int Fd : Pair)
      if (Fd >= 0)
        ::close(Fd);
    ::unlink(SocketPath.c_str());
  }

  Endpoint(const Endpoint &) = delete;
  Endpoint &operator=(const Endpoint &) = delete;

  CompileService Svc;
  ServeCounters Counters;
  std::unique_ptr<SocketServer> Server;
  std::unique_ptr<Client> Cli;
  std::string SocketPath, Error;
  int Pair[2] = {-1, -1};
  int PairBytes = 0;
};

/// Sends \p Payload through the replay's socket pair.
bool frameIO(Endpoint &E, const std::vector<uint8_t> &Payload,
             std::vector<uint8_t> &Received) {
  if (Payload.size() + 4 > static_cast<size_t>(E.PairBytes) / 2) {
    note("FAIL frame of %zu bytes exceeds the replay buffer",
         Payload.size());
    return false;
  }
  return writeFrame(E.Pair[0], Payload) && readFrame(E.Pair[1], Received);
}

struct Replay {
  bool Ok = false;
  double Us = 0;
  CompileResponse Resp;
  CacheSource Source = CacheSource::Compiled;
  /// The artifact getOrCompile returned, with its StageSeconds (the
  /// response drops them).
  CompileService::Artifact Art;
};

/// One request replayed in process, call by call.
Replay replayRequest(Endpoint &E, const CompileRequest &Req, Tracer *T,
                     uint64_t Id) {
  Replay R;
  std::string Err;
  Context Ctx;
  std::unique_ptr<Module> M;
  const Clock::time_point T0 = Clock::now();
  {
    Span Root(T, "serve.inproc_request", Id);
    std::vector<uint8_t> Bytes, Wire;
    {
      Span S(T, "serve.encode_request", Id);
      Bytes = encodeRequest(Req);
    }
    {
      Span S(T, "serve.frame_io", Id);
      if (!frameIO(E, Bytes, Wire))
        return R;
    }
    CompileRequest Got;
    {
      Span S(T, "serve.decode_request", Id);
      if (!decodeRequest(Wire.data(), Wire.size(), Got, &Err))
        return R;
    }
    {
      Span S(T, "ir.parse", Id);
      M = parseModule(Ctx, Got.IRText, &Err);
    }
    if (!M || M->functions().size() != 1)
      return R;
    {
      Span S(T, "core.get_or_compile", Id);
      R.Art = E.Svc.getOrCompile(*M->functions().front(), Got.Cfg,
                                 Got.IncludeProgram, &R.Source);
    }
    {
      Span S(T, "serve.encode_response", Id);
      CompileResponse Resp;
      Resp.Ok = true;
      Resp.Origin = static_cast<ServeOrigin>(R.Source);
      Resp.Art = *R.Art;
      Bytes = encodeResponse(Resp);
    }
    {
      Span S(T, "serve.frame_io", Id);
      if (!frameIO(E, Bytes, Wire))
        return R;
    }
    {
      Span S(T, "serve.decode_response", Id);
      R.Ok = decodeResponse(Wire.data(), Wire.size(), R.Resp, &Err);
    }
  }
  R.Us = secondsSince(T0) * 1e6;
  {
    Span S(T, "core.ir_hash", Id);
    (void)artifactIRHash(*M->functions().front());
  }
  return R;
}

/// Sends \p Req through the client; false on a transport failure or a
/// refused request. \p Us is the latency.
bool clientRequest(Endpoint &E, const CompileRequest &Req,
                   CompileResponse &Resp, double &Us, Tracer *T, uint64_t Id) {
  std::string Err;
  const Clock::time_point T0 = Clock::now();
  bool Ok;
  {
    Span S(T, "serve.client_request", Id);
    Ok = E.Cli->request(Req, Resp, &Err);
  }
  Us = secondsSince(T0) * 1e6;
  if (!Ok || !Resp.Ok) {
    note("FAIL request %llu: %s", static_cast<unsigned long long>(Id),
         Ok ? Resp.Error.c_str() : Err.c_str());
    return false;
  }
  return true;
}

/// Counts one response against \p Expect; true when it is byte-identical.
bool matches(const CompileResponse &Resp, const std::vector<uint8_t> &Expect,
             uint64_t Id) {
  if (serializeCompiledModule(Resp.Art) == Expect)
    return true;
  note("FAIL request %llu: response differs from in-process compile",
       static_cast<unsigned long long>(Id));
  return false;
}

/// Per-stage self times of the compiles replayed in the traced phase,
/// named after the layer each pipeline stage belongs to.
void reportStages(WorkloadResult &R, const std::vector<Replay> &Compiled) {
  std::map<std::string, std::vector<double>> Us;
  for (const Replay &Rp : Compiled)
    for (const auto &[Stage, Secs] : Rp.Art->Stats.StageSeconds)
      Us[Stage].push_back(Secs * 1e6);
  static const char *const Stages[][2] = {
      {"constprop", "transform"},   {"algebraic", "transform"},
      {"gvn", "transform"},         {"licm", "transform"},
      {"loop-unroll", "transform"}, {"simplifycfg", "transform"},
      {"darm-meld", "core"},        {"ssa-repair", "transform"},
      {"dce", "transform"},         {"verify", "analysis"},
  };
  for (const auto &S : Stages)
    reportSpan(R, Us, S[0], std::string(S[1]) + "." + S[0] + "_us");
}

/// Exact counts over a fixed key set.
void reportCounts(WorkloadResult &R, const std::vector<Key> &Keys) {
  double TextBytes = 0, Regions = 0, ArtBytes = 0;
  for (const Key &K : Keys) {
    CompiledModule Art;
    deserializeCompiledModule(K.Expect, Art);
    TextBytes += static_cast<double>(K.Req.IRText.size());
    Regions += Art.Stats.RegionsMelded;
    ArtBytes += static_cast<double>(K.Expect.size());
  }
  R.PerLayer["ir.text_bytes"] = TextBytes;
  R.PerLayer["core.regions_melded"] = Regions;
  R.PerLayer["core.artifact_bytes"] = ArtBytes;
}

/// The traced phase's layer breakdown of the replayed requests, and the
/// residual the replay does not see: socket, scheduling, the client's
/// own bookkeeping, the teardown of the request's module. \p UntracedP50 is the untraced median request over
/// all rounds.
void reportLayers(WorkloadResult &R, double UntracedP50,
                  const std::vector<double> &ReplayUs,
                  const std::vector<double> &TracedClientUs) {
  const auto Self = R.Spans.selfTimesUs(/*PerRequest=*/true);
  note("per-layer self time per request (traced phase):");
  // The replay's spans; with its own self time they make up the replay.
  static const char *const Replayed[] = {
      "serve.encode_request", "serve.frame_io",      "serve.decode_request",
      "ir.parse",             "core.get_or_compile", "serve.encode_response",
      "serve.decode_response",
  };
  double Sum = 0;
  for (const char *S : Replayed) {
    reportSpan(R, Self, S, std::string(S) + "_us");
    Sum += R.PerLayer[std::string(S) + "_us"];
  }
  reportSpan(R, Self, "core.ir_hash", "core.ir_hash_us");
  reportSpan(R, Self, "core.compile", "core.compile_us");
  reportSpan(R, Self, "serve.store_load", "serve.store_load_us");
  reportSpan(R, Self, "serve.store_write", "serve.store_write_us");
  auto Root = Self.find("serve.inproc_request");
  if (Root != Self.end())
    Sum += median(Root->second);
  R.PerLayer["serve.residual_us"] = UntracedP50 - median(ReplayUs);
  R.PerLayer["trace.overhead_frac"] =
      median(TracedClientUs) / UntracedP50 - 1.0;
  note("accounting: layer self p50s %.1f + residual %.1f = %.1f us vs "
       "untraced p50 %.1f us over all rounds (replay p50 %.1f us; "
       "req_us.p50 %.1f us)",
       Sum, R.PerLayer["serve.residual_us"],
       Sum + R.PerLayer["serve.residual_us"], UntracedP50, median(ReplayUs),
       R.EndToEnd["req_us.p50"]);
}

/// Cache and client counters summed over the endpoints of one phase.
struct CacheTally {
  uint64_t Hits = 0, Misses = 0, DiskHits = 0, Retries = 0;

  /// Adds \p E's counters since \p Since (its stats at that time).
  void add(const Endpoint &E, const CompileService::CacheStats &Since = {},
           uint64_t RetriesSince = 0) {
    const CompileService::CacheStats S = E.Svc.stats();
    Hits += S.Hits - Since.Hits;
    Misses += S.Misses - Since.Misses;
    DiskHits += S.DiskHits - Since.DiskHits;
    Retries += E.Cli->counters().Retries.load() - RetriesSince;
  }
};

void reportTally(WorkloadResult &R, const CacheTally &C) {
  R.PerLayer["core.cache_hit_ratio"] =
      C.Hits + C.Misses ? static_cast<double>(C.Hits) / (C.Hits + C.Misses)
                        : 0;
  R.PerLayer["core.cache_disk_hits"] = static_cast<double>(C.DiskHits);
  R.PerLayer["serve.client_retries"] = static_cast<double>(C.Retries);
}

//===----------------------------------------------------------------------===//
// serve-warm
//===----------------------------------------------------------------------===//

std::vector<Key> warmKeys() {
  DARMConfig BF;
  BF.DiamondOnly = true;
  BF.EnableRegionReplication = false;
  const DARMConfig Pipes[] = {DARMConfig(), DARMConfig::withCanonicalization(),
                              BF};
  std::vector<Key> Keys;
  for (const std::string &Name : realBenchmarkNames()) {
    auto B = createBenchmark(Name, paperBlockSizes(Name).front());
    Context Ctx;
    Module M(Ctx, Name);
    Function *F = B->build(M);
    for (const DARMConfig &Cfg : Pipes)
      Keys.push_back(makeKey(*F, Cfg));
  }
  return Keys;
}

/// Seeded order in rounds: each round requests every one of N keys
/// \p Passes times, shuffled.
class KeyOrder {
public:
  KeyOrder(size_t N, uint64_t Seed, unsigned Passes = 1) : Rng(Seed) {
    for (unsigned P = 0; P < Passes; ++P)
      for (size_t I = 0; I < N; ++I)
        Round.push_back(I);
    Pos = Round.size();
  }
  bool atRoundEnd() const { return Pos == Round.size(); }
  void endRound() { Pos = Round.size(); }
  size_t next() {
    if (atRoundEnd()) {
      for (size_t I = Round.size(); I > 1; --I)
        std::swap(Round[I - 1], Round[Rng.nextBelow(I)]);
      Pos = 0;
    }
    return Round[Pos++];
  }

private:
  RNG Rng;
  std::vector<size_t> Round;
  size_t Pos = 0;
};

} // namespace

WorkloadResult perfbench::runServeWarm(const RunOptions &O) {
  WorkloadResult R;
  std::vector<Key> Keys;
  std::unique_ptr<Endpoint> E;
  // Compiles the keys' references, starts an endpoint and warms its
  // cache through the client, checking every answer.
  R.EndToEnd["setup_s"] = timeSetups(
      [&] {
        E.reset();
        Keys.clear();
      },
      [&] {
        Keys = warmKeys();
        E = std::make_unique<Endpoint>(O, "serve-warm");
        if (!E->Error.empty())
          return;
        for (size_t I = 0; I < Keys.size(); ++I) {
          CompileResponse Resp;
          double Us;
          ++R.Attempted;
          if (!clientRequest(*E, Keys[I].Req, Resp, Us, nullptr, I) ||
              !matches(Resp, Keys[I].Expect, I))
            ++R.Failed;
        }
      });
  if (!E->Error.empty()) {
    note("FAIL %s", E->Error.c_str());
    R.Attempted = R.Failed = 1;
    return R;
  }
  note("setup: %zu keys compiled in process and served once; setup_s is the "
       "median of %u setups",
       Keys.size(), kSetupReps);

  // Rounds of about 80 ms: long against one request's noise, short
  // against an episode of host contention.
  KeyOrder Order(Keys.size(), O.Seed, /*Passes=*/16);
  uint64_t Id = Keys.size();
  const CompileService::CacheStats Before = E->Svc.stats();
  const uint64_t RetriesBefore = E->Cli->counters().Retries.load();
  RoundTimer Rounds;
  const Clock::time_point Start = Clock::now();
  while (secondsSince(Start) < O.Seconds || !Order.atRoundEnd()) {
    if (Order.atRoundEnd())
      Rounds.begin();
    const Key &K = Keys[Order.next()];
    CompileResponse Resp;
    double Lat;
    ++R.Attempted;
    if (!clientRequest(*E, K.Req, Resp, Lat, nullptr, Id) ||
        !matches(Resp, K.Expect, Id))
      ++R.Failed;
    Rounds.record(Lat);
    ++Id;
  }
  Rounds.end();
  CacheTally Tally;
  Tally.add(*E, Before, RetriesBefore);
  reportLatencies(R, Rounds);
  R.EndToEnd["peak_rss_mb"] = peakRssMb();
  reportTally(R, Tally);
  reportCounts(R, Keys);
  if (!O.Trace)
    return R;

  std::vector<double> ReplayUs, ClientUs;
  const Clock::time_point T0 = Clock::now();
  while (secondsSince(T0) < O.tracedSeconds()) {
    const Key &K = Keys[Order.next()];
    CompileResponse Resp;
    double Lat;
    R.Attempted += 2;
    if (!clientRequest(*E, K.Req, Resp, Lat, &R.Spans, Id) ||
        !matches(Resp, K.Expect, Id))
      ++R.Failed;
    ClientUs.push_back(Lat);
    ++Id;
    Replay Rp = replayRequest(*E, K.Req, &R.Spans, Id);
    if (!Rp.Ok || !matches(Rp.Resp, K.Expect, Id))
      ++R.Failed;
    ReplayUs.push_back(Rp.Us);
    ++Id;
  }
  note("traced phase: %zu socket requests, %zu replayed requests",
       ClientUs.size(), ReplayUs.size());
  reportLayers(R, median(Rounds.rawUs()), ReplayUs, ClientUs);
  return R;
}

//===----------------------------------------------------------------------===//
// compile-paper
//===----------------------------------------------------------------------===//

namespace {

/// Every distinct paper kernel (real and synthetic, at every paper block
/// size) under DARMConfig() and withCanonicalization().
std::vector<Key> paperKeys() {
  std::vector<Key> Keys;
  std::unordered_set<uint64_t> Texts;
  std::vector<std::string> Names = realBenchmarkNames();
  for (const std::string &N : syntheticBenchmarkNames())
    Names.push_back(N);
  for (const std::string &Name : Names)
    for (unsigned BS : paperBlockSizes(Name)) {
      auto B = createBenchmark(Name, BS);
      Context Ctx;
      Module M(Ctx, Name);
      Function *F = B->build(M);
      // Kernels whose IR does not depend on the block size are one
      // request, not several.
      if (Texts.insert(hashBytes(printFunction(*F))).second) {
        Keys.push_back(makeKey(*F, DARMConfig()));
        Keys.push_back(makeKey(*F, DARMConfig::withCanonicalization()));
      }
    }
  return Keys;
}

/// Compiles \p K in process, then makes the calls a daemon's store sees
/// on a miss: a load that finds nothing, and the write. Each call is a
/// span (`core.compile`, `serve.store_load`, `serve.store_write`). True
/// when the artifact's bytes equal the setup reference.
bool tracedCompile(const Key &K, FileArtifactStore &Store, Tracer *T,
                   uint64_t Id) {
  Context Ctx;
  std::unique_ptr<Module> M = parseModule(Ctx, K.Req.IRText);
  if (!M || M->functions().size() != 1)
    return false;
  CompiledModule Art;
  {
    Span S(T, "core.compile", Id);
    Art = compileToArtifact(*M->functions().front(), K.Req.Cfg);
  }
  bool Found;
  {
    Span S(T, "serve.store_load", Id);
    Found = Store.load(Art.IRHash, Art.Fingerprint, /*NeedProgram=*/true) !=
            nullptr;
  }
  {
    Span S(T, "serve.store_write", Id);
    Store.store(Art);
  }
  if (!Found && serializeCompiledModule(Art) == K.Expect)
    return true;
  note("FAIL request %llu: %s", static_cast<unsigned long long>(Id),
       Found ? "the store held a key of this round already"
             : "in-process compile differs from setup's");
  return false;
}

} // namespace

WorkloadResult perfbench::runCompilePaper(const RunOptions &O) {
  WorkloadResult R;
  std::vector<Key> Keys;
  std::unique_ptr<Endpoint> E;
  R.EndToEnd["setup_s"] = timeSetups(
      [&] {
        E.reset();
        Keys.clear();
      },
      [&] {
        Keys = paperKeys();
        E = std::make_unique<Endpoint>(O, "compile-paper");
      });
  if (!E->Error.empty()) {
    note("FAIL %s", E->Error.c_str());
    R.Attempted = R.Failed = 1;
    return R;
  }
  note("setup: %zu keys compiled in process; setup_s is the median of %u "
       "setups",
       Keys.size(), kSetupReps);

  CacheTally Tally;
  // Replaces the endpoint with one over an empty cache, so every request
  // of the next round is a miss.
  auto Fresh = [&] {
    Tally.add(*E);
    E.reset();
    E = std::make_unique<Endpoint>(O, "compile-paper");
    if (E->Error.empty())
      return true;
    note("FAIL %s", E->Error.c_str());
    ++R.Attempted;
    ++R.Failed;
    return false;
  };
  auto Request = [&](const Key &K, Tracer *T, uint64_t Id) {
    CompileResponse Resp;
    double Lat;
    ++R.Attempted;
    if (!clientRequest(*E, K.Req, Resp, Lat, T, Id) ||
        !matches(Resp, K.Expect, Id))
      ++R.Failed;
    return Lat;
  };

  // One round is one pass over the keys, on a fresh endpoint; setting
  // the endpoint up is not part of the round. No on-disk store is
  // attached: its fsync'd writes are a quarter of a request on the disk
  // these figures come from, and as unsteady as the disk's other
  // tenants. The traced phase times the store's calls on their own.
  KeyOrder Order(Keys.size(), O.Seed);
  uint64_t Id = 0;
  RoundTimer Rounds;
  const Clock::time_point Start = Clock::now();
  while (secondsSince(Start) < O.Seconds || !Order.atRoundEnd()) {
    if (Order.atRoundEnd()) {
      Rounds.end();
      if (!Rounds.empty() && !Fresh())
        break;
      Rounds.begin();
    }
    Rounds.record(Request(Keys[Order.next()], nullptr, Id++));
  }
  Rounds.end();
  Tally.add(*E);
  reportLatencies(R, Rounds);
  R.EndToEnd["peak_rss_mb"] = peakRssMb();
  reportTally(R, Tally);
  reportCounts(R, Keys);
  if (!O.Trace)
    return R;

  // Alternates a traced socket request with an in-process replay of the
  // next key. Each key is also compiled in process and written to a
  // store that, like the cache, starts each round empty. Keys already
  // served in this round would now be hits.
  Order.endRound();
  const std::string StoreDir = workPath(O, "compile-paper", ".store");
  std::unique_ptr<FileArtifactStore> Store;
  auto NextKey = [&]() -> const Key * {
    if (Order.atRoundEnd()) {
      if (!Fresh())
        return nullptr;
      Store.reset();
      std::filesystem::remove_all(StoreDir);
      Store = std::make_unique<FileArtifactStore>(StoreDir);
      if (!Store->valid()) {
        note("FAIL cannot open artifact store %s", StoreDir.c_str());
        ++R.Attempted;
        ++R.Failed;
        return nullptr;
      }
    }
    return &Keys[Order.next()];
  };
  std::vector<double> ReplayUs, ClientUs;
  std::vector<Replay> Compiled;
  const Clock::time_point T0 = Clock::now();
  while (secondsSince(T0) < O.tracedSeconds()) {
    const Key *K = NextKey();
    if (!K)
      break;
    ClientUs.push_back(Request(*K, &R.Spans, Id));
    ++R.Attempted;
    R.Failed += !tracedCompile(*K, *Store, &R.Spans, Id++);
    if (!(K = NextKey()))
      break;
    R.Attempted += 2;
    Replay Rp = replayRequest(*E, K->Req, &R.Spans, Id);
    if (!Rp.Ok || Rp.Source != CacheSource::Compiled ||
        !matches(Rp.Resp, K->Expect, Id)) {
      note("FAIL replayed request %llu%s", static_cast<unsigned long long>(Id),
           Rp.Ok && Rp.Source != CacheSource::Compiled ? ": served from cache"
                                                       : "");
      ++R.Failed;
    } else {
      ReplayUs.push_back(Rp.Us);
      Compiled.push_back(std::move(Rp));
    }
    R.Failed += !tracedCompile(*K, *Store, &R.Spans, Id++);
  }
  Store.reset();
  std::filesystem::remove_all(StoreDir);
  note("traced phase: %zu socket requests, %zu replayed requests",
       ClientUs.size(), ReplayUs.size());
  reportLayers(R, median(Rounds.rawUs()), ReplayUs, ClientUs);
  reportStages(R, Compiled);
  return R;
}
