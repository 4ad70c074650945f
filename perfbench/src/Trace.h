//===- Trace.h - In-memory span recorder for the traced run -----*- C++ -*-===//
///
/// \file
/// Spans recorded by the benchmark around each call it makes into a DARM
/// layer. A span has a name, start and end, the span that was open when
/// it began (its parent), and the id of the request or cell it belongs
/// to. Spans stay in memory until the run ends; writeChromeJson() then
/// emits Chrome trace-event JSON, which Perfetto and chrome://tracing
/// open offline.
///
/// A span's self time is its duration minus the time its direct
/// children cover. Per-layer metrics are medians of self times.
///
/// A Span guard over a null Tracer records nothing, so the untraced and
/// traced runs share one code path.
///
//===----------------------------------------------------------------------===//
#ifndef DARM_PERFBENCH_TRACE_H
#define DARM_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
public:
  Tracer() : Origin(Clock::now()) {}

  /// Opens a span under the innermost open one. Returns its index.
  int begin(const char *Name, uint64_t Req);
  void end(int Id);

  /// Self time in microseconds of every closed span, grouped by name:
  /// one sample per span, or with \p PerRequest one per (name, request)
  /// summing that request's spans of the name.
  std::map<std::string, std::vector<double>>
  selfTimesUs(bool PerRequest = false) const;

  /// Writes the first \p MaxSpans spans as complete ("ph":"X") trace
  /// events.
  bool writeChromeJson(const std::string &Path, size_t MaxSpans) const;

  size_t size() const { return Spans.size(); }

private:
  struct Record {
    const char *Name;
    int64_t StartNs;
    int64_t EndNs;
    int Parent;
    uint64_t Req;
  };
  int64_t nowNs() const;

  Clock::time_point Origin;
  std::vector<Record> Spans;
  std::vector<int> Open;
};

/// RAII span; records nothing when \p T is null. \p Name must outlive
/// the tracer (string literals, or names interned by the caller).
class Span {
public:
  Span(Tracer *T, const char *Name, uint64_t Req)
      : T(T), Id(T ? T->begin(Name, Req) : -1) {}
  ~Span() {
    if (T)
      T->end(Id);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
  int Id;
};

} // namespace perfbench

#endif // DARM_PERFBENCH_TRACE_H
