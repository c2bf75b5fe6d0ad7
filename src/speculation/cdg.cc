#include "speculation/cdg.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/check.h"

namespace ocsp::spec {

namespace {

/// Smallest GuessId: the start of every adjacency range.
constexpr GuessId kLowest{0, 0, 0};

/// A table may grow to twice its size after the last compaction, plus this
/// much, before the scrubbed entries are dropped.  A scrub hides at most one
/// node, so the node table is compacted only once the scrubs since the last
/// compaction could have hidden half of it.
constexpr std::size_t kCompactSlack = 64;

}  // namespace

bool Cdg::has_node(const GuessId& g, const ScrubLog& log) const {
  const std::uint64_t* stamp = nodes_.find(g);
  return stamp != nullptr && !log.cdg_hidden(g, *stamp);
}

void Cdg::add_node(const GuessId& g, const ScrubLog& log) {
  if (has_node(g, log)) return;
  log.track(g);
  nodes_.assign(g, log.now());
  maybe_compact(log);
}

void Cdg::remove_node(const GuessId& g, const ScrubLog& log) {
  if (!nodes_.erase(g)) return;
  std::vector<Edge> out, in;
  out_.for_each_from({g, kLowest}, [&](const Edge& e, std::uint64_t) {
    if (!(e.first == g)) return false;
    out.push_back(e);
    return true;
  });
  in_.for_each_from({g, kLowest}, [&](const Edge& e, std::uint64_t) {
    if (!(e.first == g)) return false;
    in.push_back(e);
    return true;
  });
  log.count(out.size() + in.size());
  for (const auto& [from, to] : out) {
    out_.erase({from, to});
    in_.erase({to, from});
  }
  for (const auto& [to, from] : in) {
    in_.erase({to, from});
    out_.erase({from, to});
  }
}

bool Cdg::has_edge(const GuessId& from, const GuessId& to,
                   const ScrubLog& log) const {
  const std::uint64_t* stamp = out_.find({from, to});
  return stamp != nullptr && !edge_hidden({from, to}, *stamp, log);
}

void Cdg::put_edge(const GuessId& from, const GuessId& to,
                   std::uint64_t stamp) {
  out_.assign({from, to}, stamp);
  in_.assign({to, from}, stamp);
}

std::vector<GuessId> Cdg::add_edge(const GuessId& from, const GuessId& to,
                                   const ScrubLog& log) {
  add_node(from, log);
  add_node(to, log);
  if (!has_edge(from, to, log)) {
    put_edge(from, to, log.now());
    maybe_compact(log);
  }
  if (from == to) return {from};
  // A new cycle through (from -> to) exists iff `from` is reachable from
  // `to`.
  std::vector<GuessId> path;
  util::FlatSet<GuessId> visited;
  if (find_path(to, from, path, visited, log)) {
    // path = to ... from; the cycle is exactly these nodes.
    return path;
  }
  return {};
}

std::vector<GuessId> Cdg::adjacent(const EdgeTable& table, const GuessId& g,
                                   const ScrubLog& log) const {
  std::vector<GuessId> out;
  std::uint64_t visited = 0;
  table.for_each_from({g, kLowest}, [&](const Edge& e, std::uint64_t stamp) {
    if (!(e.first == g)) return false;
    ++visited;
    if (!edge_hidden(e, stamp, log)) out.push_back(e.second);
    return true;
  });
  log.count(visited);
  return out;
}

bool Cdg::find_path(const GuessId& from, const GuessId& target,
                    std::vector<GuessId>& path,
                    util::FlatSet<GuessId>& visited,
                    const ScrubLog& log) const {
  if (!visited.insert(from)) return false;
  path.push_back(from);
  if (from == target) return true;
  bool found = false;
  std::uint64_t steps = 0;
  out_.for_each_from({from, kLowest}, [&](const Edge& e, std::uint64_t stamp) {
    if (!(e.first == from)) return false;
    ++steps;
    if (edge_hidden(e, stamp, log)) return true;
    found = find_path(e.second, target, path, visited, log);
    return !found;
  });
  log.count(steps);
  if (!found) path.pop_back();
  return found;
}

std::vector<GuessId> Cdg::predecessors(const GuessId& g,
                                       const ScrubLog& log) const {
  return adjacent(in_, g, log);
}

std::vector<GuessId> Cdg::closure_from(const GuessId& g,
                                       const ScrubLog& log) const {
  std::vector<GuessId> result;
  if (!has_node(g, log)) return result;
  util::FlatSet<GuessId> visited;
  std::vector<GuessId> work{g};
  while (!work.empty()) {
    GuessId cur = work.back();
    work.pop_back();
    if (!visited.insert(cur)) continue;
    result.push_back(cur);
    for (const auto& next : adjacent(out_, cur, log)) work.push_back(next);
  }
  return result;
}

std::size_t Cdg::node_count(const ScrubLog& log) const {
  std::size_t n = 0;
  for_each_node([&](const GuessId&) { ++n; }, log);
  return n;
}

std::size_t Cdg::edge_count(const ScrubLog& log) const {
  std::size_t n = 0;
  for_each_edge([&](const GuessId&, const GuessId&) { ++n; }, log);
  return n;
}

bool Cdg::empty(const ScrubLog& log) const {
  bool found = false;
  std::uint64_t visited = 0;
  nodes_.for_each_visible(
      [&](const GuessId& g, std::uint64_t stamp) {
        return log.cdg_hidden(g, stamp);
      },
      [&](const GuessId&, std::uint64_t) {
        found = true;
        return false;
      },
      visited, log.marking());
  log.count(visited);
  return !found;
}

std::vector<GuessId> Cdg::nodes(const ScrubLog& log) const {
  std::vector<GuessId> out;
  for_each_node([&](const GuessId& g) { out.push_back(g); }, log);
  return out;
}

void Cdg::maybe_compact(const ScrubLog& log) {
  if (log.now() == 0) return;  // nothing was ever scrubbed
  std::uint64_t visited = 0;
  if (nodes_.size() >= 2 * compacted_nodes_ + kCompactSlack &&
      log.now() - compacted_nodes_at_ >= nodes_.size() / 2) {
    std::vector<std::pair<GuessId, std::uint64_t>> kept;
    nodes_.for_each_visible(
        [&](const GuessId& g, std::uint64_t stamp) {
          return log.cdg_hidden(g, stamp);
        },
        [&](const GuessId& g, std::uint64_t stamp) {
          kept.emplace_back(g, stamp);
          return true;
        },
        visited, log.marking());
    nodes_ = decltype(nodes_)::from_sorted(kept);
    compacted_nodes_ = kept.size();
    compacted_nodes_at_ = log.now();
  }
  if (out_.size() >= 2 * compacted_edges_ + kCompactSlack) {
    std::vector<std::pair<Edge, std::uint64_t>> out, in;
    out_.for_each_visible(
        [&](const Edge& e, std::uint64_t stamp) {
          return edge_hidden(e, stamp, log);
        },
        [&](const Edge& e, std::uint64_t stamp) {
          out.emplace_back(e, stamp);
          in.emplace_back(Edge{e.second, e.first}, stamp);
          return true;
        },
        visited, log.marking());
    std::sort(in.begin(), in.end());
    out_ = decltype(out_)::from_sorted(out);
    in_ = decltype(in_)::from_sorted(in);
    compacted_edges_ = out.size();
  }
  log.count(visited);
}

Cdg Cdg::thawed(const ScrubLog& log, std::uint64_t at) const {
  const std::uint64_t now = log.now();
  if (now == at) return *this;  // nothing scrubbed since the checkpoint
  auto visible_at = [&](const Edge& e, std::uint64_t stamp) {
    return !log.cdg_hidden_at(e.first, stamp, at) &&
           !log.cdg_hidden_at(e.second, stamp, at);
  };
  Cdg out;
  std::uint64_t visited = 0;
  if (now - at >= nodes_.size() + out_.size()) {
    // More scrubs since the checkpoint than entries in it: rebuild from
    // what was visible then.
    std::vector<std::pair<GuessId, std::uint64_t>> nodes;
    nodes_.for_each_from(kLowest, [&](const GuessId& g, std::uint64_t stamp) {
      ++visited;
      if (!log.cdg_hidden_at(g, stamp, at)) nodes.emplace_back(g, now);
      return true;
    });
    std::vector<std::pair<Edge, std::uint64_t>> edges, reversed;
    out_.for_each_from({kLowest, kLowest},
                       [&](const Edge& e, std::uint64_t stamp) {
                         ++visited;
                         if (visible_at(e, stamp)) {
                           edges.emplace_back(e, now);
                           reversed.emplace_back(Edge{e.second, e.first},
                                                 now);
                         }
                         return true;
                       });
    std::sort(reversed.begin(), reversed.end());
    out.nodes_ = decltype(nodes_)::from_sorted(nodes);
    out.out_ = decltype(out_)::from_sorted(edges);
    out.in_ = decltype(in_)::from_sorted(reversed);
    out.compacted_nodes_ = nodes.size();
    out.compacted_nodes_at_ = now;
    out.compacted_edges_ = edges.size();
  } else {
    // Re-write only what the scrubs since the checkpoint would hide.
    out = *this;
    for (std::uint64_t t = at + 1; t <= now; ++t) {
      const GuessId& g = log.scrubbed_at(t);
      ++visited;
      if (const std::uint64_t* stamp = nodes_.find(g);
          stamp != nullptr && !log.cdg_hidden_at(g, *stamp, at)) {
        out.nodes_.assign(g, now);
      }
      std::vector<Edge> restamp;
      auto collect = [&](bool outgoing) {
        (outgoing ? out_ : in_)
            .for_each_from({g, kLowest},
                           [&](const Edge& e, std::uint64_t stamp) {
                             if (!(e.first == g)) return false;
                             ++visited;
                             const Edge fwd = outgoing
                                                  ? e
                                                  : Edge{e.second, e.first};
                             if (visible_at(fwd, stamp)) restamp.push_back(fwd);
                             return true;
                           });
      };
      collect(true);
      collect(false);
      for (const auto& [from, to] : restamp) out.put_edge(from, to, now);
    }
  }
  log.count(visited);
  return out;
}

std::size_t Cdg::verify_lazy(const ScrubLog& log, Checked& checked) const {
  const std::size_t nodes = nodes_.verify(
      [&](const GuessId& g, std::uint64_t stamp) {
        return log.cdg_hidden(g, stamp);
      },
      checked);
  std::vector<Edge> eager_edges;
  std::map<GuessId, std::vector<GuessId>> succ, pred;
  util::FlatSet<GuessId> touched;  // endpoints of every stored edge
  out_.for_each_from({kLowest, kLowest},
                     [&](const Edge& e, std::uint64_t stamp) {
                       touched.insert(e.first);
                       touched.insert(e.second);
                       const std::uint64_t* back =
                           in_.find({e.second, e.first});
                       OCSP_CHECK_MSG(back != nullptr && *back == stamp,
                                      "CDG reverse edge missing");
                       const bool visible = !edge_hidden(e, stamp, log);
                       OCSP_CHECK_MSG(has_edge(e.first, e.second, log) ==
                                          visible,
                                      "lazy CDG has_edge disagrees");
                       if (visible) {
                         eager_edges.push_back(e);
                         succ[e.first].push_back(e.second);
                         pred[e.second].push_back(e.first);
                       }
                       return true;
                     });
  OCSP_CHECK_MSG(in_.size() == out_.size(), "CDG reverse edges disagree");
  // Node lookups are checked above; a visible edge needs visible ends.
  for (const auto& [from, to] : eager_edges) {
    OCSP_CHECK_MSG(has_node(from, log) && has_node(to, log),
                   "visible CDG edge at a hidden node");
  }
  std::vector<Edge> lazy_edges;
  for_each_edge(
      [&](const GuessId& from, const GuessId& to) {
        lazy_edges.emplace_back(from, to);
      },
      log);
  OCSP_CHECK_MSG(lazy_edges == eager_edges, "lazy CDG edges disagree");
  // A node no stored edge touches has no predecessors and is its own
  // closure by construction.
  for (const GuessId& g : touched) {
    OCSP_CHECK_MSG(predecessors(g, log) == pred[g],
                   "lazy CDG predecessors disagree");
    std::vector<GuessId> closure;
    if (has_node(g, log)) {
      util::FlatSet<GuessId> seen;
      std::vector<GuessId> work{g};
      while (!work.empty()) {
        const GuessId cur = work.back();
        work.pop_back();
        if (!seen.insert(cur)) continue;
        closure.push_back(cur);
        for (const auto& next : succ[cur]) work.push_back(next);
      }
    }
    OCSP_CHECK_MSG(closure_from(g, log) == closure,
                   "lazy CDG closure disagrees");
  }
  return nodes + out_.size();
}

std::string Cdg::to_string(const ScrubLog& log) const {
  std::ostringstream os;
  for (const auto& node : nodes(log)) {
    os << node.to_string() << " ->";
    for (const auto& s : adjacent(out_, node, log)) os << " " << s.to_string();
    os << "\n";
  }
  return os.str();
}

}  // namespace ocsp::spec
