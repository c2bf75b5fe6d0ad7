#include "speculation/rollback_map.h"

#include <utility>
#include <vector>

#include "util/check.h"

namespace ocsp::spec {

namespace {

/// See cdg.cc: growth allowed past twice the compacted size, once the
/// scrubs since could have hidden half the table.
constexpr std::size_t kCompactSlack = 64;

}  // namespace

void RollbackMap::assign(const GuessId& g, const StateIndex& rb,
                         const ScrubLog& log) {
  log.track(g);
  table_.assign(g, Entry{rb, log.now()});
  if (table_.size() < 2 * compacted_ + kCompactSlack ||
      log.now() - compacted_at_ < table_.size() / 2) {
    return;
  }
  // Drop what the log hides (amortized O(1) per write).
  std::vector<std::pair<GuessId, Entry>> kept;
  std::uint64_t visited = 0;
  table_.for_each_visible(
      [&](const GuessId& h, const Entry& e) {
        return log.rollback_hidden(h, e.stamp);
      },
      [&](const GuessId& h, const Entry& e) {
        kept.emplace_back(h, e);
        return true;
      },
      visited, log.marking());
  log.count(visited);
  table_ = decltype(table_)::from_sorted(kept);
  compacted_ = kept.size();
  compacted_at_ = log.now();
}

bool RollbackMap::empty(const ScrubLog& log) const {
  bool found = false;
  std::uint64_t visited = 0;
  table_.for_each_visible(
      [&](const GuessId& g, const Entry& e) {
        return log.rollback_hidden(g, e.stamp);
      },
      [&](const GuessId&, const Entry&) {
        found = true;
        return false;
      },
      visited, log.marking());
  log.count(visited);
  return !found;
}

RollbackMap RollbackMap::thawed(const ScrubLog& log, std::uint64_t at) const {
  const std::uint64_t now = log.now();
  if (now == at) return *this;  // nothing scrubbed since the checkpoint
  RollbackMap out;
  std::uint64_t visited = 0;
  if (now - at >= table_.size()) {
    // More scrubs since the checkpoint than entries in it: rebuild from
    // what was visible then.
    std::vector<std::pair<GuessId, Entry>> kept;
    table_.for_each_from(GuessId{0, 0, 0},
                         [&](const GuessId& g, const Entry& e) {
                           ++visited;
                           if (!log.rollback_hidden_at(g, e.stamp, at)) {
                             kept.emplace_back(g, Entry{e.rb, now});
                           }
                           return true;
                         });
    out.table_ = decltype(table_)::from_sorted(kept);
    out.compacted_ = kept.size();
    out.compacted_at_ = now;
  } else {
    // Re-write only what the scrubs since the checkpoint would hide.
    out = *this;
    for (std::uint64_t t = at + 1; t <= now; ++t) {
      const GuessId& g = log.scrubbed_at(t);
      ++visited;
      if (const Entry* e = table_.find(g);
          e != nullptr && !log.rollback_hidden_at(g, e->stamp, at)) {
        out.table_.assign(g, Entry{e->rb, now});
      }
    }
  }
  log.count(visited);
  return out;
}

std::size_t RollbackMap::verify_lazy(const ScrubLog& log,
                                     Checked& checked) const {
  return table_.verify(
      [&](const GuessId& g, const Entry& e) {
        return log.rollback_hidden(g, e.stamp);
      },
      checked);
}

}  // namespace ocsp::spec
