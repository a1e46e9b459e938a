// replay.h — the traced run's stacked replay.
//
// The traced run records a workload's calls (RunOptions::record) and then
// replays them through the stack one layer at a time. Each pass is a tight
// loop with its own state; the recording is cut into 32 windows, every
// window goes through every pass before the next one, and each
// (window, pass) is one span:
//   1. the hub (rs::runtime::StreamHub), with and without the Queries;
//   2. twin engines from TryMakeShardedRobust, bit-identical to the hub's,
//      with and without the telemetry calls a Query makes;
//   3. the base sketches (copies x shards per tenant, ShardedSizingFor
//      sizing), fed the runs ShardOf routes to each shard, and the gate's
//      Clone + Merge + Estimate on them;
//   4. the hash families alone.
// A layer's self time is the difference between two stacked passes. The
// checkpoint layers are timed on the replayed end state: hub
// Snapshot/Restore, engine Snapshot/construct/Restore, and the io codecs
// on the base sketches.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Replays `recorded` (a RunWorkload result made with RunOptions::record)
// for `fleet` and returns the per-layer metrics. Twin-fidelity failures —
// an answer that differs from the hub's, or a pass that consumes other
// than the recorded update count — are reported through `checks`.
std::vector<Metric> Replay(const std::vector<Tenant>& fleet,
                           const RunResult& recorded, Tracer* tracer,
                           int parent_span, RunResult* checks);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
