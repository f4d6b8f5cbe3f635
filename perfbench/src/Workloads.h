//===- perfbench/src/Workloads.h - Workload entry points --------*- C++ -*-===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

/// The paper's figure queries, in process. Prints the result line.
int runFigs(const RunOptions &O);

/// Drives a steno_serve (\p Routed false) or steno_router (\p Routed
/// true) listening on O.Socket. Prints the result line.
int runClient(const RunOptions &O, bool Routed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
