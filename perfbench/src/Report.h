//===- Report.h - Workload results, statistics and output ------*- C++ -*-===//
///
/// \file
/// What every workload hands back to main(), the statistics it reports
/// with, and the one-line JSON result printed last.
///
//===----------------------------------------------------------------------===//
#ifndef DARM_PERFBENCH_REPORT_H
#define DARM_PERFBENCH_REPORT_H

#include "Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Length of the traced phase: per-layer medians need far fewer
  /// samples than the end-to-end tail.
  double tracedSeconds() const { return Seconds < 20 ? Seconds : 20; }
  /// Scratch directory inside the checkout: sockets, the artifact store,
  /// the Chrome trace.
  std::string WorkDir;
};

using MetricMap = std::map<std::string, double>;

struct WorkloadResult {
  uint64_t Attempted = 0;
  /// Failed, refused, byte-mismatched and validation-failed requests or
  /// cells. Nonzero makes the run exit 1.
  uint64_t Failed = 0;
  /// End-to-end metrics, always from an untraced phase.
  MetricMap EndToEnd;
  /// Per-layer metrics, from the traced phase (--trace 1 only).
  MetricMap PerLayer;
  /// Spans of the traced phase, written out as Chrome trace JSON.
  Tracer Spans;
};

/// Nearest-rank percentile, \p P in [0, 100]. 0 for no samples.
double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);
double geomean(const std::vector<double> &V);

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// Seconds since \p Since.
double secondsSince(Clock::time_point Since);

/// Human-readable line on stdout, ahead of the JSON result line.
void note(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Host speed. The host these figures come from shares its cores and
/// caches with other tenants, whose load slows everything by up to 1.8x
/// in episodes from seconds to minutes long, sometimes for a whole run.
/// So every end-to-end timing is scaled by the host's speed at the time
/// it was taken, as measured by a probe: a fixed task of the benchmark's
/// own code (sorting and hashing data of a fixed seed) that no change to
/// DARM can speed up or slow down. A scaled time reads as if the probe
/// had taken kProbeRefUs, about its median on the 4-vCPU KVM guest the
/// benchmark was tuned on.
constexpr double kProbeRefUs = 2000;

/// The probe's time now, in microseconds: the median of three runs.
double probeUs();

/// Factor that scales a time taken between probes of \p BeforeUs and
/// \p AfterUs to the reference speed.
inline double speedFactor(double BeforeUs, double AfterUs) {
  return 2 * kProbeRefUs / (BeforeUs + AfterUs);
}

/// The timed loop of a workload, in rounds that each do the same work:
/// one request per key, or one run per cell. The host is probed before
/// the first round and after every round, and each round's times are
/// scaled by the mean of the probes on either side of it.
class RoundTimer {
public:
  /// Starts a round.
  void begin();
  /// Ends the open round, if any, and probes the host.
  void end();
  /// Records one request (cell) of the open round.
  void record(double Us) { Open.Us.push_back(Us); }
  bool empty() const { return Done.empty(); }

  /// Every request's latency, scaled; and unscaled.
  std::vector<double> scaledUs() const;
  std::vector<double> rawUs() const;
  /// Requests in closed rounds, and the rounds' scaled wall time.
  size_t requests() const;
  double scaledSeconds() const;
  /// The probes taken, in microseconds.
  const std::vector<double> &probes() const { return Probes; }

private:
  struct Round {
    std::vector<double> Us;
    double Seconds = 0;
    double Factor = 1;
  };
  std::vector<Round> Done;
  Round Open;
  bool IsOpen = false;
  double Before = 0;
  Clock::time_point Start;
  std::vector<double> Probes;
};

/// Sets req_us.p50 and req_us.p99 over every request of \p Rounds, and
/// req_per_s as requests per second of the rounds' wall time, all at
/// the reference speed. Notes the sample count, the unscaled figures,
/// and when p99 has fewer than ten samples beyond it.
void reportLatencies(WorkloadResult &R, const RoundTimer &Rounds);

/// setup_s: the median of kSetupReps setups, each scaled to the
/// reference speed. \p Release frees the state the previous setup
/// built, off the clock, so only one copy is ever alive; \p Setup
/// builds the state the run keeps.
constexpr unsigned kSetupReps = 7;
template <typename ReleaseFn, typename SetupFn>
double timeSetups(ReleaseFn &&Release, SetupFn &&Setup) {
  std::vector<double> Secs;
  for (unsigned I = 0; I < kSetupReps; ++I) {
    if (I)
      Release();
    const double Before = probeUs();
    const Clock::time_point T0 = Clock::now();
    Setup();
    const double S = secondsSince(T0);
    Secs.push_back(S * speedFactor(Before, probeUs()));
  }
  return median(Secs);
}

/// Sets per-layer metric \p Metric to the median self time of the spans
/// named \p Span (0 when there are none) and notes the sample count.
void reportSpan(WorkloadResult &R,
                const std::map<std::string, std::vector<double>> &Self,
                const std::string &Span, const std::string &Metric);

} // namespace perfbench

#endif // DARM_PERFBENCH_REPORT_H
