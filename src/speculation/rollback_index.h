// Index of a process's live rollback points (section 4.1.3).
//
// Every thread's `rollbacks` map says where the thread must restart if a
// guess it depends on aborts.  Garbage collection and GVT fossil
// collection need two aggregates over those maps, restricted to guesses
// still in doubt: the earliest rollback point (everything strictly before
// it is unreachable) and the set of threads some rollback would restore.
// Recomputing them walks every thread's map; this index keeps the union
// of the (guess, rollback point) pairs of unresolved guesses so both
// answers cost O(log n).
//
// The index holds a set, not per-thread reference counts: forking copies
// the parent's map into the child while the parent keeps its own, so the
// union grows only by the child's own guess.  A pair leaves the union when
// its guess resolves (drop) or when the last thread holding it disappears;
// the owner handles the second case by rebuilding from the maps after
// kills and restores, which are rare and already cost O(threads).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "speculation/guess.h"

namespace ocsp::spec {

class RollbackIndex {
 public:
  /// Record that some live thread rolls back to `rb` if `g` aborts.
  void add(const GuessId& g, const StateIndex& rb);

  /// `g` resolved: none of its pairs can be a rollback target any more.
  void drop(const GuessId& g);

  /// Guesses of `owner` from incarnations below `inc` with index >= `start`
  /// (the range an incarnation-start observation may implicitly abort), in
  /// ascending order.
  std::vector<GuessId> guesses_in_range(ProcessId owner, std::uint32_t inc,
                                        std::uint32_t start) const;

  void clear();

  /// Earliest rollback point of any unresolved guess, or null.
  const StateIndex* low() const {
    return points_.empty() ? nullptr : &points_.begin()->first;
  }

  /// True when some unresolved pair would restore thread `thread`.
  bool targets(std::uint32_t thread) const {
    return targets_.count(thread) > 0;
  }

  /// Distinct rollback points, ascending.
  const std::map<StateIndex, std::uint32_t>& points() const {
    return points_;
  }
  /// Threads targeted by at least one pair, with the pair counts.
  const std::map<std::uint32_t, std::uint32_t>& target_threads() const {
    return targets_;
  }

 private:
  void remove_point(const StateIndex& rb);

  std::map<GuessId, std::set<StateIndex>> by_guess_;
  std::map<StateIndex, std::uint32_t> points_;     ///< rb -> pairs at rb
  std::map<std::uint32_t, std::uint32_t> targets_;  ///< thread -> pairs
};

}  // namespace ocsp::spec
