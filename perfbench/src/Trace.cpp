//===- Trace.cpp - In-memory span recorder --------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

int Tracer::begin(const char *Name, uint64_t Req) {
  const int Id = static_cast<int>(Spans.size());
  Spans.push_back({Name, 0, -1, Open.empty() ? -1 : Open.back(), Req});
  Open.push_back(Id);
  // Stamp last, so the bookkeeping above is not inside the span.
  Spans.back().StartNs = nowNs();
  return Id;
}

void Tracer::end(int Id) {
  Spans[Id].EndNs = nowNs();
  Open.pop_back();
}

std::map<std::string, std::vector<double>>
Tracer::selfTimesUs(bool PerRequest) const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Record &R : Spans)
    if (R.Parent >= 0 && R.EndNs >= 0)
      ChildNs[R.Parent] += R.EndNs - R.StartNs;
  std::map<std::pair<std::string, uint64_t>, int64_t> ByRequest;
  std::map<std::string, std::vector<double>> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Record &R = Spans[I];
    if (R.EndNs < 0)
      continue;
    const int64_t SelfNs = R.EndNs - R.StartNs - ChildNs[I];
    if (PerRequest)
      ByRequest[{R.Name, R.Req}] += SelfNs;
    else
      Out[R.Name].push_back(static_cast<double>(SelfNs) / 1e3);
  }
  for (const auto &[Key, Ns] : ByRequest)
    Out[Key.first].push_back(static_cast<double>(Ns) / 1e3);
  return Out;
}

bool Tracer::writeChromeJson(const std::string &Path, size_t MaxSpans) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool First = true;
  for (size_t I = 0; I < std::min(Spans.size(), MaxSpans); ++I) {
    const Record &R = Spans[I];
    if (R.EndNs < 0)
      continue;
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"req\": %llu, \"span\": %zu, \"parent\": %d}}",
                 First ? "" : ",\n", R.Name, R.StartNs / 1e3,
                 (R.EndNs - R.StartNs) / 1e3,
                 static_cast<unsigned long long>(R.Req), I, R.Parent);
    First = false;
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
