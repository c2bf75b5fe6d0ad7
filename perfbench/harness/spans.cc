#include "spans.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

int Spans::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.instance = instance_;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Spans::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Scopes nest, so the span closing is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::int64_t Spans::self_ns(int index) const {
  const Span& span = spans_[static_cast<std::size_t>(index)];
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  // Children are recorded after their parent, while it is still open.
  for (std::size_t i = static_cast<std::size_t>(index) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].start_ns > span.end_ns) break;
    if (spans_[i].parent == index) {
      children.emplace_back(spans_[i].start_ns, spans_[i].end_ns);
    }
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [b, e] : children) {
    const std::int64_t lo = std::max(b, reach);
    const std::int64_t hi = std::min(e, span.end_ns);
    if (hi > lo) covered += hi - lo;
    reach = std::max(reach, hi);
  }
  return (span.end_ns - span.start_ns) - covered;
}

bool Spans::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"schema\": \"perfbench-spans-v1\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns - origin
        << ", \"end_ns\": " << s.end_ns - origin
        << ", \"parent\": " << s.parent << ", \"instance\": " << s.instance
        << ", \"self_ns\": " << self_ns(static_cast<int>(i)) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
