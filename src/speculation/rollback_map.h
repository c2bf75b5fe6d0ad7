// A thread's rollback map (section 4.1.3): for each guess it depends on,
// the state it restarts from if that guess aborts.
//
// Stored in a persistent table shared with the thread's children and
// checkpoints (O(1) copy), and scrubbed lazily: a COMMIT records the guess
// in the owner's ScrubLog instead of erasing it from every copy, and reads
// skip the entries the log hides (scrub_log.h).
#pragma once

#include <cstdint>
#include <unordered_set>

#include "speculation/guess.h"
#include "speculation/persistent_table.h"
#include "speculation/scrub_log.h"

namespace ocsp::spec {

class RollbackMap {
  struct Entry {
    StateIndex rb;
    std::uint64_t stamp = 0;  ///< ScrubLog clock when written
  };

 public:
  using Checked = PersistentTable<GuessId, Entry>::Checked;

  /// Rollback point of `g`, or nullptr.
  const StateIndex* find(const GuessId& g, const ScrubLog& log) const {
    const Entry* e = table_.find(g);
    return e != nullptr && !log.rollback_hidden(g, e->stamp) ? &e->rb
                                                             : nullptr;
  }

  /// Insert or overwrite.
  void assign(const GuessId& g, const StateIndex& rb, const ScrubLog& log);

  /// Remove `g` from this copy now (not lazily).
  void erase(const GuessId& g) { table_.erase(g); }

  /// Call f(guess, rollback point) for every entry, ascending.
  template <typename F>
  void for_each(const ScrubLog& log, F&& f) const {
    std::uint64_t visited = 0;
    table_.for_each_visible(
        [&](const GuessId& g, const Entry& e) {
          return log.rollback_hidden(g, e.stamp);
        },
        [&](const GuessId& g, const Entry& e) {
          f(g, e.rb);
          return true;
        },
        visited, log.marking());
    log.count(visited);
  }

  /// Call f(guess, rollback point, stamp) for every stored entry, hidden
  /// or not, outside the subtrees already in `seen` (PersistentTable::
  /// for_each_stored_once).  Returns the nodes visited.
  template <typename F>
  std::size_t for_each_stored_once(std::unordered_set<const void*>& seen,
                                   F&& f) const {
    return table_.for_each_stored_once(
        seen, [&](const GuessId& g, const Entry& e) { f(g, e.rb, e.stamp); });
  }

  /// No entry: O(1) once every entry has been seen hidden.
  bool empty(const ScrubLog& log) const;

  /// This map as restored from a checkpoint taken at clock `at` (see
  /// Cdg::thawed).
  RollbackMap thawed(const ScrubLog& log, std::uint64_t at) const;

  void clear() { *this = RollbackMap(); }

  /// Debug cross-check: find(), for_each() and empty() answer what
  /// filtering every stored entry against `log` one by one answers
  /// (PersistentTable::verify; nodes in `checked` are skipped).  Returns
  /// the nodes checked.
  std::size_t verify_lazy(const ScrubLog& log, Checked& checked) const;

 private:
  PersistentTable<GuessId, Entry> table_;
  std::size_t compacted_ = 0;
  std::uint64_t compacted_at_ = 0;  ///< log clock of that compaction
};

}  // namespace ocsp::spec
