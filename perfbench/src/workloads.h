// workloads.h — the benchmark's three StreamHub workloads (README.md).
//
// Every workload is one single-threaded closed loop against one
// rs::runtime::StreamHub: set up a fleet, run the workload's timed phase,
// then checkpoint the hub (Snapshot -> Restore into a fresh hub -> verify
// -> fail over). Only time spent inside hub calls is on the clock; the
// input generator, the attacks and the exact oracles run off it.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rs/core/robust.h"
#include "rs/stream/update.h"
#include "stats.h"

namespace perfbench {

inline constexpr double kEps = 0.4;

inline constexpr std::string_view kWorkloads[] = {"fp_ingest", "f0_adaptive",
                                                  "checkpoint"};

struct Tenant {
  std::string name;
  rs::Task task = rs::Task::kF0;
  rs::RobustConfig config;
  uint64_t seed = 0;
};

// The fleet `workload` hosts, with per-tenant seeds derived from `seed`.
// Empty for an unknown workload name.
std::vector<Tenant> Fleet(std::string_view workload, uint64_t seed);

// The config TryMakeShardedRobust takes to build the same engine the hub
// builds for `tenant` (engine.task set from the tenant's task).
rs::RobustConfig EngineConfig(const Tenant& tenant);

// One recorded hub call, in the order it was made.
struct Call {
  enum Kind : uint8_t { kBatch, kUpdate, kQuery };
  Kind kind = kQuery;
  uint32_t tenant = 0;
  size_t begin = 0;  // First update, as an index into Recording::updates.
  size_t count = 0;  // Updates carried (0 for a Query).
};

// What a run sent (checkpoint's untimed fill included) and what the hub
// answered, for the traced run's replay. For f0_adaptive the updates are
// the attacks' choices, which are deterministic given the answers.
struct Recording {
  std::vector<rs::Update> updates;
  std::vector<Call> calls;
  std::vector<double> answers;  // Query estimates, in call order.
  size_t steps = 0;             // Client steps (one step holds 1-2 calls).
  double busy_s = 0.0;          // Hub time of the recorded steps.
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // When nonzero, the timed loop runs exactly this many steps (or
  // checkpoint rounds) instead of running for `seconds`: the seed
  // determinism tests need a fixed amount of work.
  size_t max_steps = 0;
  bool record = false;
};

struct RunResult {
  uint64_t attempted = 0;  // Status-returning hub calls made.
  uint64_t failed = 0;     // ... of which returned a non-OK status.
  uint64_t check_failures = 0;
  std::vector<std::string> problems;  // The first few check failures.
  uint64_t accuracy_checks = 0;
  double max_error = 0.0;  // Largest |estimate - exact| / exact checked.

  // Timed ingest: every step's span covers its hub calls and nothing
  // else. Step latencies are kept as a uniform sample of up to 2^20.
  Reservoir step_us{size_t{1} << 20};
  WindowedRate windows{0.5};  // Updates per busy second, 0.5 s windows.

  // Checkpoint rounds.
  std::vector<double> snapshot_s;
  std::vector<double> restore_s;
  size_t envelope_bytes = 0;

  size_t footprint_bytes = 0;  // Sum of StreamInfo.memory_footprint_bytes.
  uint64_t flips = 0;          // Sum of GuaranteeStatus.flips_spent.
  Recording recording;         // Filled when RunOptions::record is set.

  bool correct() const { return failed == 0 && check_failures == 0; }
  void Fail(std::string problem);
};

// CreateStream for the whole fleet into a fresh hub; returns the seconds
// it took. This is the set-up probe: in a fresh process it includes the
// process-wide lazy tables the fleet's sketches build on first use.
double TimeSetUp(const std::vector<Tenant>& fleet, RunResult* out);

RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
