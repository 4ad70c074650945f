//===- Report.cpp - Workload statistics and notes --------------------------===//

#include "Report.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>

#include <sys/resource.h>

using namespace perfbench;

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()));
  const size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double perfbench::median(std::vector<double> V) { return percentile(V, 50); }

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double perfbench::peakRssMb() {
  rusage U;
  if (::getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double perfbench::secondsSince(Clock::time_point Since) {
  return std::chrono::duration<double>(Clock::now() - Since).count();
}

void perfbench::note(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::vprintf(Fmt, Args);
  va_end(Args);
  std::printf("\n");
}

namespace {

/// Keeps the probe's result alive, so its work cannot be optimized away.
volatile uint64_t ProbeSink;

double probeOnceUs() {
  constexpr size_t N = 16384;
  const Clock::time_point T0 = Clock::now();
  std::vector<uint32_t> V(N);
  uint64_t X = 0x9E3779B97F4A7C15ull;
  for (uint32_t &E : V) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    E = static_cast<uint32_t>(X >> 33);
  }
  std::sort(V.begin(), V.end());
  std::unordered_map<uint32_t, uint32_t> M;
  for (size_t I = 0; I < N; I += 4)
    M[V[I]] = static_cast<uint32_t>(I);
  uint64_t Sum = 0;
  for (uint32_t K : V) {
    auto It = M.find(K);
    Sum += It == M.end() ? 1 : It->second;
  }
  ProbeSink = Sum;
  return secondsSince(T0) * 1e6;
}

} // namespace

double perfbench::probeUs() {
  return median({probeOnceUs(), probeOnceUs(), probeOnceUs()});
}

void RoundTimer::begin() {
  end();
  // The probe that closed the previous round opens this one.
  if (Probes.empty())
    Probes.push_back(probeUs());
  Before = Probes.back();
  IsOpen = true;
  Start = Clock::now();
}

void RoundTimer::end() {
  if (!IsOpen)
    return;
  Open.Seconds = secondsSince(Start);
  const double After = probeUs();
  Probes.push_back(After);
  Open.Factor = speedFactor(Before, After);
  Done.push_back(std::move(Open));
  Open = Round();
  IsOpen = false;
}

std::vector<double> RoundTimer::scaledUs() const {
  std::vector<double> Us;
  for (const Round &Rd : Done)
    for (double X : Rd.Us)
      Us.push_back(X * Rd.Factor);
  return Us;
}

std::vector<double> RoundTimer::rawUs() const {
  std::vector<double> Us;
  for (const Round &Rd : Done)
    Us.insert(Us.end(), Rd.Us.begin(), Rd.Us.end());
  return Us;
}

size_t RoundTimer::requests() const {
  size_t N = 0;
  for (const Round &Rd : Done)
    N += Rd.Us.size();
  return N;
}

double RoundTimer::scaledSeconds() const {
  double S = 0;
  for (const Round &Rd : Done)
    S += Rd.Seconds * Rd.Factor;
  return S;
}

void perfbench::reportLatencies(WorkloadResult &R, const RoundTimer &Rounds) {
  const std::vector<double> Us = Rounds.scaledUs();
  const std::vector<double> Raw = Rounds.rawUs();
  const double Secs = Rounds.scaledSeconds();
  R.EndToEnd["req_us.p50"] = percentile(Us, 50);
  R.EndToEnd["req_us.p99"] = percentile(Us, 99);
  R.EndToEnd["req_per_s"] = Secs > 0 ? Rounds.requests() / Secs : 0;
  const std::vector<double> &P = Rounds.probes();
  note("req_us: n=%zu p50=%.1f p99=%.1f max=%.1f req_per_s=%.1f at the "
       "reference speed; unscaled p50=%.1f p99=%.1f%s",
       Us.size(), R.EndToEnd["req_us.p50"], R.EndToEnd["req_us.p99"],
       percentile(Us, 100), R.EndToEnd["req_per_s"], percentile(Raw, 50),
       percentile(Raw, 99),
       Us.size() < 1000 ? "  (under 1000 samples: fewer than ten beyond p99)"
                        : "");
  note("host probe: n=%zu min=%.1f p50=%.1f max=%.1f us (reference %.0f us)",
       P.size(), percentile(P, 0), median(P), percentile(P, 100),
       kProbeRefUs);
}

void perfbench::reportSpan(WorkloadResult &R,
                           const std::map<std::string, std::vector<double>> &Self,
                           const std::string &Span, const std::string &Metric) {
  auto It = Self.find(Span);
  const size_t N = It == Self.end() ? 0 : It->second.size();
  R.PerLayer[Metric] = N ? median(It->second) : 0;
  note("  %-32s n=%-7zu p50=%.2f", Metric.c_str(), N, R.PerLayer[Metric]);
}
