// Commit dependency graph (sections 4.1.4, 4.2.8).
//
// Nodes are guesses; an edge g -> h records "g precedes h": h can commit
// only after g.  PRECEDENCE messages add edges; a cycle means a causal
// chain runs backwards through a fork — a time fault — and every guess on
// the cycle must abort (Figure 4 / Figure 7).
//
// Nodes live in a persistent table and edges in a copy-on-write one, so
// copying a Cdg (a fork, a checkpoint) is O(1).  Each node and edge carries the clock value of the
// ScrubLog at which it was written; reads skip the ones the log has
// scrubbed since (scrub_log.h), which answers exactly what removing them
// eagerly from every copy would.  Every query takes the owner's log; the
// default, ScrubLog::none(), scrubs nothing, for a standalone graph.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "speculation/cow_table.h"
#include "speculation/guess.h"
#include "speculation/persistent_table.h"
#include "speculation/scrub_log.h"
#include "util/flat_set.h"

namespace ocsp::spec {

class Cdg {
 public:
  bool has_node(const GuessId& g,
                const ScrubLog& log = ScrubLog::none()) const;
  void add_node(const GuessId& g, const ScrubLog& log = ScrubLog::none());

  /// Remove `g` and all its edges from this copy now (not lazily).
  void remove_node(const GuessId& g, const ScrubLog& log = ScrubLog::none());

  /// Add edge from -> to (creating missing nodes).  If this closes a cycle,
  /// returns the nodes on one such cycle (in order, starting at `to`);
  /// otherwise returns an empty vector.  The edge is added either way — the
  /// caller aborts the cycle members, which removes them.
  std::vector<GuessId> add_edge(const GuessId& from, const GuessId& to,
                                const ScrubLog& log = ScrubLog::none());

  bool has_edge(const GuessId& from, const GuessId& to,
                const ScrubLog& log = ScrubLog::none()) const;

  /// Direct predecessors of g (guesses that must commit before g), in
  /// ascending order.
  std::vector<GuessId> predecessors(
      const GuessId& g, const ScrubLog& log = ScrubLog::none()) const;

  /// g plus all transitive successors — the set invalidated when g aborts.
  std::vector<GuessId> closure_from(
      const GuessId& g, const ScrubLog& log = ScrubLog::none()) const;

  std::size_t node_count(const ScrubLog& log = ScrubLog::none()) const;
  std::size_t edge_count(const ScrubLog& log = ScrubLog::none()) const;
  /// No node: O(1) once every entry has been seen hidden.
  bool empty(const ScrubLog& log = ScrubLog::none()) const;

  std::vector<GuessId> nodes(const ScrubLog& log = ScrubLog::none()) const;

  /// Call f(node) for every node, ascending.
  template <typename F>
  void for_each_node(F&& f, const ScrubLog& log = ScrubLog::none()) const {
    std::uint64_t visited = 0;
    nodes_.for_each_visible(
        [&](const GuessId& g, std::uint64_t stamp) {
          return log.cdg_hidden(g, stamp);
        },
        [&](const GuessId& g, std::uint64_t) {
          f(g);
          return true;
        },
        visited, log.marking());
    log.count(visited);
  }

  /// Call f(from, to) for every edge, ascending.
  template <typename F>
  void for_each_edge(F&& f, const ScrubLog& log = ScrubLog::none()) const {
    std::uint64_t visited = 0;
    out_.for_each_visible(
        [&](const Edge& e, std::uint64_t stamp) {
          return edge_hidden(e, stamp, log);
        },
        [&](const Edge& e, std::uint64_t) {
          f(e.first, e.second);
          return true;
        },
        visited, log.marking());
    log.count(visited);
  }

  /// Call f(guess) for every guess a stored node or edge names, hidden or
  /// not, outside the subtrees already in `seen` (PersistentTable::
  /// for_each_stored_once); a guess may come more than once.  Returns the
  /// entries visited.
  template <typename F>
  std::size_t for_each_stored_once(std::unordered_set<const void*>& seen,
                                   F&& f) const {
    // in_ mirrors out_.
    return nodes_.for_each_stored_once(
               seen, [&](const GuessId& g, std::uint64_t) { f(g); }) +
           out_.for_each_stored_once(seen,
                                     [&](const Edge& e, std::uint64_t) {
                                       f(e.first);
                                       f(e.second);
                                     });
  }

  /// This graph as restored from a checkpoint taken at clock `at`: what was
  /// visible at `at`, with the entries scrubbed since re-written now.
  Cdg thawed(const ScrubLog& log, std::uint64_t at) const;

  void clear() { *this = Cdg(); }

  using Checked = PersistentTable<GuessId, std::uint64_t>::Checked;

  /// Debug cross-check against the graph eager removal would have left,
  /// found by filtering every stored node and edge against `log` one by
  /// one: node lookups and walks answer what that filter answers
  /// (PersistentTable::verify; nodes in `checked` are skipped), and every
  /// edge query (for_each_edge, has_edge, predecessors, closure_from)
  /// answers what the filtered edges answer.  Returns the entries checked.
  std::size_t verify_lazy(const ScrubLog& log, Checked& checked) const;

  std::string to_string(const ScrubLog& log = ScrubLog::none()) const;

 private:
  /// (from, to) in out_, (to, from) in in_.
  using Edge = std::pair<GuessId, GuessId>;
  using EdgeTable = CowTable<Edge, std::uint64_t>;

  static bool edge_hidden(const Edge& e, std::uint64_t stamp,
                          const ScrubLog& log) {
    return log.cdg_hidden(e.first, stamp) || log.cdg_hidden(e.second, stamp);
  }
  /// Visible adjacency of `g` in `table` (out_ or in_), ascending.
  std::vector<GuessId> adjacent(const EdgeTable& table, const GuessId& g,
                                const ScrubLog& log) const;
  void put_edge(const GuessId& from, const GuessId& to, std::uint64_t stamp);
  /// Drop what the log hides once the tables have doubled since the last
  /// compaction (amortized O(1) per write).
  void maybe_compact(const ScrubLog& log);

  /// Find a path from `from` back to `target` (DFS); fills `path`.
  bool find_path(const GuessId& from, const GuessId& target,
                 std::vector<GuessId>& path, util::FlatSet<GuessId>& visited,
                 const ScrubLog& log) const;

  PersistentTable<GuessId, std::uint64_t> nodes_;
  EdgeTable out_;
  EdgeTable in_;
  std::size_t compacted_nodes_ = 0;
  std::uint64_t compacted_nodes_at_ = 0;  ///< log clock of that compaction
  std::size_t compacted_edges_ = 0;
};

}  // namespace ocsp::spec
