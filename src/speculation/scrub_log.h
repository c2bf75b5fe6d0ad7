// Lazy scrubbing of resolved guesses from the per-thread dependency tables.
//
// Section 4.2.6 removes a committed guess from every thread that holds it,
// and section 4.2.7 removes an aborted guess from every thread's CDG.
// Done eagerly, each resolution visits every thread that copied the guess,
// which is the whole in-doubt window when a client runs ahead of its
// server.  Instead, a resolution is recorded here once, with a time from a
// process-wide clock, and every table entry carries the clock value at
// which it was written (its stamp).  A live thread's entry is hidden
// exactly when its guess was scrubbed after the entry was written, which is
// what eager removal leaves behind:
//   * entries written before the scrub are gone;
//   * an entry written again afterwards (a PRECEDENCE edge re-adding a
//     committed node, a restore) stays until the guess is scrubbed again,
//     as it does under eager removal when a later COMMIT arrives.
// Checkpoints are not scrubbed.  A checkpoint taken at clock C holds what
// was visible at C; restoring it at R must not apply the scrubs in (C, R],
// so thawing re-stamps the entries those scrubs would hide (Cdg::thawed,
// RollbackMap::thawed).
//
// Only guesses some table of the owner holds are logged: the tables report
// every guess they write (track), and a scrub of any other guess, such as a
// broadcast COMMIT for another process's dependents, is a no-op.
//
// The log forgets what no table can ask about (prune): a guess no stored
// entry holds any more, and the scrubs at or before the oldest retained
// checkpoint's clock, which every checkpoint query covers whole, so a
// guess keeps only the times of its latest scrubs there.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "speculation/guess.h"

namespace ocsp::spec {

struct GuessIdHash {
  std::size_t operator()(const GuessId& g) const {
    std::uint64_t h = g.owner;
    h = h * 0x9E3779B97F4A7C15ULL + g.incarnation;
    h = h * 0x9E3779B97F4A7C15ULL + g.index;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

class ScrubLog {
 public:
  /// `steps`, when given, counts the table entries the lazy walks visit
  /// (the owner's deterministic work counter).
  explicit ScrubLog(std::uint64_t* steps = nullptr) : steps_(steps) {}

  ScrubLog(const ScrubLog&) = delete;
  ScrubLog& operator=(const ScrubLog&) = delete;

  /// The log of a table nothing is ever scrubbed from (standalone CDGs).
  static const ScrubLog& none();

  /// Current clock: the number of scrubs so far.  New entries are stamped
  /// with it.
  std::uint64_t now() const { return floor_ + events_.size(); }

  /// Guesses tracked plus scrubs remembered: what the log holds.
  std::size_t size() const { return latest_.size() + events_.size(); }
  /// Whether the log has grown, since it was last pruned, by what it kept
  /// then plus what that pruning walked (plus a slack): pruning costs
  /// amortized O(1) per guess or scrub logged, and the log stays within
  /// twice what it must keep plus the number of table nodes.
  bool wants_prune() const {
    return size() >= 2 * kept_ + swept_ + kPruneSlack;
  }
  /// Forget every guess not in `held` (the guesses of every stored entry,
  /// hidden or not, of every table of the owner, checkpoints included) and
  /// the scrubs at or before `floor` (at most the clock of every retained
  /// checkpoint).  `swept`: the table nodes walked to find `held`.
  /// O(size()).
  void prune(const std::unordered_set<GuessId, GuessIdHash>& held,
             std::uint64_t floor, std::size_t swept);
  /// Whether `g` is tracked (debug cross-check of prune).
  bool tracks(const GuessId& g) const { return latest_.count(g) == 1; }
  /// Clock up to which scrubs were forgotten.
  std::uint64_t floor() const { return floor_; }

  /// A table of the owner is writing `g`.
  void track(const GuessId& g) const {
    if (this != &none()) latest_.try_emplace(g);
  }

  /// COMMIT: hides the guess's CDG node and edges and its rollback entry.
  void commit(const GuessId& g) { scrub(g, /*rollback=*/true); }
  /// ABORT's scrub: hides the guess's CDG node and edges only.
  void abort(const GuessId& g) { scrub(g, /*rollback=*/false); }

  /// Hidden in a live table: scrubbed after `stamp`.
  bool cdg_hidden(const GuessId& g, std::uint64_t stamp) const;
  bool rollback_hidden(const GuessId& g, std::uint64_t stamp) const;
  /// Hidden in a checkpoint taken at clock `at`: scrubbed in (stamp, at].
  bool cdg_hidden_at(const GuessId& g, std::uint64_t stamp,
                     std::uint64_t at) const;
  bool rollback_hidden_at(const GuessId& g, std::uint64_t stamp,
                          std::uint64_t at) const;

  /// The guess scrubbed at clock `time` (floor() < time <= now()).
  const GuessId& scrubbed_at(std::uint64_t time) const {
    return event(time).guess;
  }

  void count(std::uint64_t visited) const {
    if (steps_ != nullptr && !quiet_) *steps_ += visited;
  }
  /// Walks may mark the subtrees they find hidden.
  bool marking() const { return !quiet_; }

  /// While alive, walks neither count steps nor mark hidden subtrees: a
  /// debug cross-check leaves the work counters, and the walks after it,
  /// as they would be without it.
  class Quiet {
   public:
    explicit Quiet(const ScrubLog& log) : log_(log), was_(log.quiet_) {
      log_.quiet_ = true;
    }
    ~Quiet() { log_.quiet_ = was_; }
    Quiet(const Quiet&) = delete;
    Quiet& operator=(const Quiet&) = delete;

   private:
    const ScrubLog& log_;
    bool was_;
  };

 private:
  /// One scrub; the scrubs of a guess are chained newest first.
  struct Event {
    GuessId guess;
    bool rollback = false;      ///< a COMMIT scrub
    std::uint64_t earlier = 0;  ///< time of the guess's previous scrub
  };
  /// Times of a guess's latest scrub and latest COMMIT scrub (0: none),
  /// overall and among the forgotten ones (at or before floor_).
  struct Latest {
    std::uint64_t any = 0;
    std::uint64_t rollback = 0;
    std::uint64_t forgotten_any = 0;
    std::uint64_t forgotten_rollback = 0;
  };
  static constexpr std::size_t kPruneSlack = 2048;

  const Event& event(std::uint64_t time) const {
    return events_[time - 1 - floor_];
  }

  void scrub(const GuessId& g, bool rollback);
  const Latest* latest(const GuessId& g) const;
  /// Some scrub of `g` (a COMMIT scrub when `rollback`) lies in
  /// (stamp, at].
  bool scrubbed_in(const GuessId& g, bool rollback, std::uint64_t stamp,
                   std::uint64_t at) const;

  /// Every tracked guess, with its latest scrubs.
  mutable std::unordered_map<GuessId, Latest, GuessIdHash> latest_;
  /// events_[t - 1 - floor_] happened at time t; earlier ones are
  /// forgotten.
  std::deque<Event> events_;
  std::uint64_t floor_ = 0;
  std::size_t kept_ = 0;   ///< size() after the last prune
  std::size_t swept_ = 0;  ///< table nodes the last prune walked
  std::uint64_t* steps_;
  mutable bool quiet_ = false;
};

}  // namespace ocsp::spec
