#include "speculation/rollback_index.h"

#include <vector>

namespace ocsp::spec {

void RollbackIndex::add(const GuessId& g, const StateIndex& rb) {
  if (!by_guess_[g].insert(rb).second) return;
  ++points_[rb];
  ++targets_[rb.thread];
}

void RollbackIndex::remove_point(const StateIndex& rb) {
  auto p = points_.find(rb);
  if (--p->second == 0) points_.erase(p);
  auto t = targets_.find(rb.thread);
  if (--t->second == 0) targets_.erase(t);
}

void RollbackIndex::drop(const GuessId& g) {
  auto it = by_guess_.find(g);
  if (it == by_guess_.end()) return;
  for (const auto& rb : it->second) remove_point(rb);
  by_guess_.erase(it);
}

std::vector<GuessId> RollbackIndex::guesses_in_range(
    ProcessId owner, std::uint32_t inc, std::uint32_t start) const {
  std::vector<GuessId> out;
  for (auto it = by_guess_.lower_bound(GuessId{owner, 0, 0});
       it != by_guess_.end() && it->first.owner == owner &&
       it->first.incarnation < inc;) {
    const GuessId& g = it->first;
    if (g.index < start) {
      // Skip to this incarnation's first candidate.
      it = by_guess_.lower_bound(GuessId{owner, g.incarnation, start});
      continue;
    }
    out.push_back(g);
    ++it;
  }
  return out;
}

void RollbackIndex::clear() {
  by_guess_.clear();
  points_.clear();
  targets_.clear();
}

}  // namespace ocsp::spec
