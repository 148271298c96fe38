// Measurement helpers shared by the benchmark's files: host clocks, the
// median, the in-memory span recorder of the traced run, and JSON number and
// string formatting.
#pragma once

#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, in seconds.
inline double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread, live or joined), in seconds.
inline double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Keeps `v` observable so a timed loop cannot be folded away.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// In-memory spans recorded by the benchmark's own code around each call
/// into a layer (traced run only; a disabled recorder costs one branch).
/// Written out once, when the run ends.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), epoch_(wall_now()) {}

  int open(const char* name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, parent, wall_now() - epoch_, 0.0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = wall_now() - epoch_;
    stack_.pop_back();
  }

  /// {"spans": [...], "self_s": {name: total self time}}. A span's self time
  /// is its duration minus the time its direct children cover.
  void write_json(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  bool enabled_;
  double epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: open on construction, close on scope exit.
class SpanScope {
 public:
  SpanScope(Spans& spans, const char* name) : spans_(spans), id_(spans.open(name)) {}
  ~SpanScope() { spans_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& spans_;
  int id_;
};

/// Shortest round-trip decimal form of `v` (all significant digits kept).
inline std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

inline std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

inline void Spans::write_json(std::ostream& os) const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::vector<std::pair<std::string, double>> self;
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": " << quoted(s.name)
       << ", \"parent\": " << s.parent << ", \"start_s\": " << num(s.start_s)
       << ", \"end_s\": " << num(s.end_s) << "}";
    const double own = s.end_s - s.start_s - child_s[i];
    auto it = std::find_if(self.begin(), self.end(),
                           [&](const auto& e) { return e.first == s.name; });
    if (it == self.end()) {
      self.emplace_back(s.name, own);
    } else {
      it->second += own;
    }
  }
  os << "],\n\"self_s\": {";
  for (std::size_t i = 0; i < self.size(); ++i) {
    os << (i ? ", " : "") << quoted(self[i].first) << ": " << num(self[i].second);
  }
  os << "}}\n";
}

}  // namespace perfbench
