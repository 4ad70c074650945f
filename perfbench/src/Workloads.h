//===- Workloads.h - The benchmark's three workloads -----------*- C++ -*-===//
///
/// \file
/// Each workload times its setup, runs an untraced phase for
/// RunOptions::Seconds that yields the end-to-end metrics, and with
/// RunOptions::Trace a second, traced phase that yields the per-layer
/// metrics. perfbench/README.md says why each workload exists.
///
//===----------------------------------------------------------------------===//
#ifndef DARM_PERFBENCH_WORKLOADS_H
#define DARM_PERFBENCH_WORKLOADS_H

#include "Report.h"

namespace perfbench {

/// One closed-loop client, every request a memory hit.
WorkloadResult runServeWarm(const RunOptions &O);
/// One closed-loop client, every request a paper kernel compiled cold.
WorkloadResult runCompilePaper(const RunOptions &O);
/// The paper's kernels simulated from their compiled artifacts.
WorkloadResult runSimPaper(const RunOptions &O);

} // namespace perfbench

#endif // DARM_PERFBENCH_WORKLOADS_H
