// stats.h — the benchmark's arithmetic: percentiles with their sample
// count, rates from busy time, and self-time differencing. Header-only so
// the helper tests (tests/perfbench_test.cc) exercise exactly this code.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// A percentile together with the sample it was read from: `samples` is the
// sample count and `beyond` the number of samples ranked above the reported
// one, so a reader can tell how many observations back a tail figure.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

// Nearest-rank percentile, q in (0, 1]: the smallest sample that has at
// least ceil(q * n) samples at or below it. An empty sample gives all zeros.
inline Percentile NearestRank(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t r = std::clamp<size_t>(static_cast<size_t>(rank), 1,
                                      samples.size());
  std::nth_element(samples.begin(), samples.begin() + (r - 1), samples.end());
  p.value = samples[r - 1];
  p.beyond = samples.size() - r;
  return p;
}

inline double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 0.5).value;
}

// Work per second of busy time: `count` units done while the layer under
// test was running for `busy_seconds`. Zero busy time gives 0, not inf.
inline double RatePerSecond(uint64_t count, double busy_seconds) {
  return busy_seconds > 0.0 ? static_cast<double>(count) / busy_seconds
                            : 0.0;
}

// Work per busy second, measured over consecutive windows that each close
// once they hold `window_seconds` of busy time. The median window rate
// shrugs off a burst of contention that a whole-run average would absorb;
// a trailing partial window is dropped unless it is the only one.
class WindowedRate {
 public:
  explicit WindowedRate(double window_seconds)
      : window_seconds_(window_seconds) {}

  void Add(uint64_t count, double busy_seconds) {
    count_ += count;
    busy_ += busy_seconds;
    if (busy_ >= window_seconds_) Close();
  }

  // Per-window rates, in order (including a lone partial window).
  std::vector<double> Rates() const {
    if (!rates_.empty() || busy_ <= 0.0) return rates_;
    return {RatePerSecond(count_, busy_)};
  }

 private:
  void Close() {
    rates_.push_back(RatePerSecond(count_, busy_));
    count_ = 0;
    busy_ = 0.0;
  }

  double window_seconds_;
  uint64_t count_ = 0;
  double busy_ = 0.0;
  std::vector<double> rates_;
};

// A uniform sample of at most `capacity` values from a stream of any
// length (Vitter's algorithm R, with a fixed-seed generator), so a long
// run's latency samples take bounded memory and the run's peak RSS does
// not grow with how many steps it managed.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity) : capacity_(capacity) {}

  void Add(double value) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(value);
      return;
    }
    // SplitMix64 step: any fixed-seed generator will do.
    state_ += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    const uint64_t slot = z % seen_;
    if (slot < capacity_) values_[slot] = value;
  }

  const std::vector<double>& values() const { return values_; }
  uint64_t seen() const { return seen_; }

 private:
  size_t capacity_;
  uint64_t seen_ = 0;
  uint64_t state_ = 0;
  std::vector<double> values_;
};

// Self time of a layer: the stacked pass that includes it minus the pass
// that stops below it. Differences of two noisy passes can come out
// negative; they are reported as measured, never clamped to zero.
inline double SelfTime(double with_layer, double without_layer) {
  return with_layer - without_layer;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
