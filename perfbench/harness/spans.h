// In-memory span recorder for the traced run.
//
// Spans are recorded in the harness only, around its calls into the
// runtime's modules; nothing inside src/ is instrumented.  A span has a
// name, a start and end on the steady clock, the span open around it when
// it began (its parent), and the benchmark instance it belongs to.  Spans
// stay in memory until write_json(), which also derives each span's self
// time: its duration minus the union of its children's intervals.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;    ///< index into Spans::all(), -1 for a root
  int instance = -1;  ///< benchmark instance id, -1 outside instances
};

class Spans {
 public:
  /// Open a span under the innermost open one; returns its index.
  int open(std::string name);
  void close(int index);

  void set_instance(int instance) { instance_ = instance; }
  const std::vector<Span>& all() const { return spans_; }

  /// Self time of span `index`: duration minus the part its direct
  /// children cover.
  std::int64_t self_ns(int index) const;

  /// Write every span as one JSON document; false if the file cannot be
  /// written.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int instance_ = -1;
};

/// RAII span; a null recorder makes it a no-op, which is how the untraced
/// run shares the traced run's code.
class Scope {
 public:
  Scope(Spans* spans, const char* name)
      : spans_(spans), index_(spans ? spans->open(name) : -1) {}
  ~Scope() {
    if (spans_) spans_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int index_;
};

}  // namespace perfbench
