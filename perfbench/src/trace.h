// trace.h — in-memory spans for the traced run. A span is (name, start,
// end, parent); spans live in memory while the benchmark runs and are
// written out once, at exit, as JSON lines.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  // Index into spans(); -1 for a root span.
  };

  Tracer() : origin_(Clock::now()) {}

  int Begin(std::string name, int parent = -1) {
    spans_.push_back({std::move(name), Now(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = Now(); }

  // Durations, in seconds, of every span called `name`, in start order.
  std::vector<double> Durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back((s.end_ns - s.start_ns) * 1e-9);
    }
    return out;
  }
  double Total(std::string_view name) const {
    double total = 0.0;
    for (double d : Durations(name)) total += d;
    return total;
  }

  const std::vector<Span>& spans() const { return spans_; }

  bool WriteJsonLines(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"parent\": " << s.parent << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent = -1)
      : tracer_(tracer), id_(tracer->Begin(std::move(name), parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
