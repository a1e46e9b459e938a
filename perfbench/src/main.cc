// perfbench — one run of the repo benchmark (see README.md; run.py is the
// entry point that builds this binary and runs it).
//
//   perfbench --workload fp_ingest|f0_adaptive|checkpoint --seed N
//             --seconds S --trace 0|1 [--spans PATH]
//   perfbench --workload W --seed N --setup-probe
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. Untraced runs report the end-to-end
// metrics (set-up time comes from separate --setup-probe processes, so
// each sample pays the process-wide lazy tables); traced runs replay the
// recorded inputs layer by layer and report the per-layer metrics.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "replay.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_probe = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--setup-probe") {
      args->setup_probe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::string_view(value) == "1";
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  for (std::string_view w : perfbench::kWorkloads) {
    if (w == args->workload) return args->seconds > 0.0;
  }
  return false;
}

// Numbers from an unoptimised build, or one with asserts on (RS_DCHECK
// adds per-update loops), measure the build, not the code.
const char* BuildProblem() {
#ifndef NDEBUG
  return "asserts are enabled (NDEBUG is not defined)";
#elif !defined(__OPTIMIZE__)
  return "the build is not optimised";
#else
  return nullptr;
#endif
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintResult(const perfbench::RunResult& r,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintChecks(const Args& args, const perfbench::RunResult& r) {
  std::printf("# %s checks: %llu accuracy checks, max relative error %.4f "
              "(eps %.2f); %llu check failures\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(r.accuracy_checks), r.max_error,
              perfbench::kEps,
              static_cast<unsigned long long>(r.check_failures));
  for (const std::string& p : r.problems) std::printf("# FAILED: %s\n", p.c_str());
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;  // KiB.
}

std::vector<Metric> EndToEnd(const perfbench::RunResult& r) {
  const std::vector<double>& steps = r.step_us.values();
  const perfbench::Percentile p50 = perfbench::NearestRank(steps, 0.50);
  const perfbench::Percentile p99 = perfbench::NearestRank(steps, 0.99);
  const std::vector<double> windows = r.windows.Rates();
  std::printf("# steps: %llu, percentiles over a uniform sample of %zu; p99 "
              "has %zu beyond it; checkpoint rounds: %zu; ingest windows: "
              "%zu\n",
              static_cast<unsigned long long>(r.step_us.seen()), p99.samples,
              p99.beyond, r.snapshot_s.size(), windows.size());
  std::printf("# window rates (updates/s):");
  for (double w : windows) std::printf(" %.0f", w);
  std::printf("\n");
  return {
      {"ingest_rate", perfbench::Median(windows), "updates/s"},
      {"step_p50_us", p50.value, "us"},
      {"step_p99_us", p99.value, "us"},
      {"snapshot_s", perfbench::Median(r.snapshot_s), "s"},
      {"restore_s", perfbench::Median(r.restore_s), "s"},
      {"snapshot_mib", static_cast<double>(r.envelope_bytes) / kMiB, "MiB"},
      {"footprint_mib", static_cast<double>(r.footprint_bytes) / kMiB, "MiB"},
      {"peak_rss_mib", PeakRssMiB(), "MiB"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fp_ingest|f0_adaptive|"
                 "checkpoint --seed N (--seconds S --trace 0|1 [--spans "
                 "PATH] | --setup-probe)\n");
    return 2;
  }
  if (const char* problem = BuildProblem()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", problem);
    return 3;
  }

  if (args.setup_probe) {
    perfbench::RunResult r;
    const double seconds =
        perfbench::TimeSetUp(perfbench::Fleet(args.workload, args.seed), &r);
    PrintResult(r, {{"setup_s", seconds, "s"}});
    return 0;
  }

  std::printf("{\"record\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %s, \"trace\": %d, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"nproc\": %u}}\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              Number(args.seconds).c_str(), args.trace ? 1 : 0,
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              std::thread::hardware_concurrency());

  perfbench::RunOptions options;
  options.workload = args.workload;
  options.seed = args.seed;
  // A traced run records a sixth of the budget and replays it through five
  // passes that each take about as long, so it too lasts about `seconds`.
  options.seconds = args.trace ? args.seconds / 6.0 : args.seconds;
  options.record = args.trace;

  if (!args.trace) {
    const perfbench::RunResult r = perfbench::RunWorkload(options);
    const std::vector<Metric> metrics = EndToEnd(r);
    PrintChecks(args, r);
    PrintResult(r, metrics);
    return 0;
  }

  perfbench::Tracer tracer;
  const int root = tracer.Begin("traced_run");
  const int record = tracer.Begin("record", root);
  perfbench::RunResult r = perfbench::RunWorkload(options);
  tracer.End(record);
  const std::vector<Metric> metrics =
      perfbench::Replay(perfbench::Fleet(args.workload, args.seed), r, &tracer,
                        root, &r);
  tracer.End(root);
  if (!args.spans.empty() && !tracer.WriteJsonLines(args.spans)) {
    std::fprintf(stderr, "perfbench: could not write spans to %s\n",
                 args.spans.c_str());
  }
  PrintChecks(args, r);
  PrintResult(r, metrics);
  return 0;
}
