// Bookkeeping indexes of SpeculativeProcess and the garbage collection
// that reads them.
//
// Section 4's protocol is stated over "every thread" and "every rollback
// point"; implemented literally, each event re-walks state that grows with
// the run.  The indexes here keep each per-event scan proportional to what
// it acts on:
//   * a retired watermark skips the prefix of threads that finished for
//     good (terminated, flushed, no dependencies left);
//   * phase sets name the threads blocked in Receive, waiting at a join, or
//     done but guarded;
//   * CDG and rollback entries of resolved guesses are scrubbed lazily
//     (scrub_log.h), so forks and checkpoints share their tables and a
//     COMMIT or ABORT visits no thread for them;
//   * the guard-holder index names the threads whose guard a COMMIT
//     changes, and the edge-holder index the threads whose CDG can name
//     an implied-committed predecessor;
//   * join wake-ups name the JoinWait threads that may be able to move;
//   * the rollback index keeps the union of unresolved (guess -> rollback
//     point) pairs, so GC reads the earliest point and the targeted threads
//     in O(log n);
//   * the per-thread ledger orders each thread's checkpoints, replay
//     metadata and logged inputs, so GC, rollback purges, requeues and
//     replays touch one thread's entries.
// None of this changes what the protocol does: verify_bookkeeping()
// recomputes every index and the GC outcome by brute force in debug builds.
#include <algorithm>
#include <iterator>
#include <unordered_set>

#include "speculation/process.h"
#include "speculation/runtime.h"
#include "util/check.h"

namespace ocsp::spec {

// ---------------------------------------------------------------------------
// History updates
// ---------------------------------------------------------------------------

void SpeculativeProcess::set_guess_status(const GuessId& g,
                                          GuessStatus status) {
  const bool was_aborted = history_.status(g) == GuessStatus::kAborted;
  const bool table_changed = history_.peer(g.owner).set_status(g, status);
  const GuessStatus now = history_.status(g);
  if (now != GuessStatus::kUnknown) rollback_index_.drop(g);
  if (table_changed) {
    // The start index of g's incarnation moved down: earlier incarnations
    // may now be implicitly aborted from g.index on.
    incarnation_start_moved(g.owner, g.incarnation, g.index);
  } else if (was_aborted != (now == GuessStatus::kAborted)) {
    ++history_epoch_;
  }
}

void SpeculativeProcess::note_incarnation(ProcessId owner, std::uint32_t inc,
                                          std::uint32_t start) {
  if (history_.peer(owner).observe_incarnation(inc, start)) {
    incarnation_start_moved(owner, inc, start);
  }
}

void SpeculativeProcess::incarnation_start_moved(ProcessId owner,
                                                 std::uint32_t inc,
                                                 std::uint32_t start) {
  ++history_epoch_;
  // Guesses the implicit-abort rule may just have resolved.
  for (const auto& g : rollback_index_.guesses_in_range(owner, inc, start)) {
    ++work_.bookkeeping_steps;
    if (history_.status(g) != GuessStatus::kUnknown) rollback_index_.drop(g);
  }
}

// ---------------------------------------------------------------------------
// Thread table
// ---------------------------------------------------------------------------

namespace {

std::set<std::uint32_t>* phase_set(ThreadCtx::Phase phase,
                                   std::set<std::uint32_t>& message,
                                   std::set<std::uint32_t>& join,
                                   std::set<std::uint32_t>& done) {
  switch (phase) {
    case ThreadCtx::Phase::kAwaitMessage:
      return &message;
    case ThreadCtx::Phase::kJoinWait:
      return &join;
    case ThreadCtx::Phase::kDoneWaitGuard:
      return &done;
    default:
      return nullptr;
  }
}

}  // namespace

ThreadCtx& SpeculativeProcess::insert_thread(ThreadCtx t) {
  const std::uint32_t idx = t.index;
  auto old = threads_.find(idx);
  if (old != threads_.end()) {
    // Replacement (restore): pairs only the old state held may be gone.
    if (auto* set = phase_set(old->second.phase, awaiting_message_,
                              join_waiting_, done_waiting_)) {
      set->erase(idx);
    }
    index_guard(old->second, /*add=*/false);
    rollback_index_stale_ = true;
  }
  retired_below_ = std::min(retired_below_, idx);
  ThreadCtx& slot = threads_.insert_or_assign(idx, std::move(t)).first->second;
  if (auto* set = phase_set(slot.phase, awaiting_message_, join_waiting_,
                            done_waiting_)) {
    set->insert(idx);
  }
  if (slot.phase == ThreadCtx::Phase::kTerminated) {
    dead_candidates_.insert(idx);
  }
  if (slot.phase == ThreadCtx::Phase::kJoinWait) wake_join(idx);
  index_guard(slot, /*add=*/true);
  std::vector<GuessId> endpoints;
  slot.cdg.for_each_edge(
      [&](const GuessId& from, const GuessId& to) {
        endpoints.push_back(from);
        endpoints.push_back(to);
      },
      scrubs_);
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());
  for (const GuessId& g : endpoints) note_edge_holder(g, idx);
  return slot;
}

void SpeculativeProcess::erase_thread(
    std::map<std::uint32_t, ThreadCtx>::iterator it) {
  const std::uint32_t idx = it->first;
  if (auto* set = phase_set(it->second.phase, awaiting_message_,
                            join_waiting_, done_waiting_)) {
    set->erase(idx);
  }
  if (!it->second.rollbacks.empty(scrubs_)) rollback_index_stale_ = true;
  index_guard(it->second, /*add=*/false);
  // A JoinWait parent whose aborted guess's right thread just died can
  // re-execute it now.
  wake_join(it->second.created_at.thread);
  dead_candidates_.insert(idx);
  threads_.erase(it);
}

void SpeculativeProcess::set_phase(ThreadCtx& t, ThreadCtx::Phase phase) {
  if (t.phase == phase) return;
  if (auto* set = phase_set(t.phase, awaiting_message_, join_waiting_,
                            done_waiting_)) {
    set->erase(t.index);
  }
  t.phase = phase;
  if (auto* set = phase_set(phase, awaiting_message_, join_waiting_,
                            done_waiting_)) {
    set->insert(t.index);
  }
  if (phase == ThreadCtx::Phase::kTerminated) dead_candidates_.insert(t.index);
  if (phase == ThreadCtx::Phase::kJoinWait) wake_join(t.index);
}

void SpeculativeProcess::add_dependency(ThreadCtx& t, const GuessId& g,
                                        const StateIndex& rb) {
  if (const StateIndex* old = t.rollbacks.find(g, scrubs_)) {
    if (!(*old == rb)) {
      // The old pair may have been this thread's alone.
      t.rollbacks.assign(g, rb, scrubs_);
      rollback_index_stale_ = true;
    }
  } else {
    t.rollbacks.assign(g, rb, scrubs_);
  }
  if (history_.status(g) == GuessStatus::kUnknown) rollback_index_.add(g, rb);
}

void SpeculativeProcess::guard_add(ThreadCtx& t, const GuessId& g) {
  // A later guess of the same owner replaces (subsumes) the earlier one.
  const GuessId old = t.guard.for_owner(g.owner);
  if (!t.guard.add(g)) return;
  if (old.valid()) {
    auto& threads = guard_holders_[old];
    threads.erase(std::lower_bound(threads.begin(), threads.end(), t.index));
    if (threads.empty()) guard_holders_.erase(old);
  }
  auto& threads = guard_holders_[g];
  threads.insert(std::lower_bound(threads.begin(), threads.end(), t.index),
                 t.index);
}

void SpeculativeProcess::index_guard(const ThreadCtx& t, bool add) {
  for (const auto& g : t.guard) {
    ++work_.bookkeeping_steps;
    auto& threads = guard_holders_[g];
    auto pos = std::lower_bound(threads.begin(), threads.end(), t.index);
    if (add) {
      if (pos == threads.end() || *pos != t.index) threads.insert(pos, t.index);
    } else {
      if (pos != threads.end() && *pos == t.index) threads.erase(pos);
      if (threads.empty()) guard_holders_.erase(g);
    }
  }
}

void SpeculativeProcess::note_edge_holder(const GuessId& g,
                                          std::uint32_t index) {
  ++work_.bookkeeping_steps;
  std::vector<std::uint32_t>& threads = edge_holders_[g];
  if (threads.empty() || threads.back() != index) threads.push_back(index);
}

std::vector<std::uint32_t> SpeculativeProcess::take_holders(
    std::map<GuessId, std::vector<std::uint32_t>>& index, const GuessId& g) {
  auto held = index.find(g);
  if (held == index.end()) return {};
  std::vector<std::uint32_t> threads = std::move(held->second);
  index.erase(held);
  std::sort(threads.begin(), threads.end());
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
  return threads;
}

void SpeculativeProcess::wake_join(std::uint32_t index) {
  if (join_waiting_.count(index) > 0) join_wakeups_.insert(index);
}

ThreadCtx SpeculativeProcess::thaw_checkpoint(const ThreadCtx& cp) const {
  ThreadCtx t = cp;
  t.cdg = cp.cdg.thawed(scrubs_, cp.checkpointed_clock);
  t.rollbacks = cp.rollbacks.thawed(scrubs_, cp.checkpointed_clock);
  return t;
}

bool SpeculativeProcess::retirable(const ThreadCtx& t) const {
  return t.phase == ThreadCtx::Phase::kTerminated && !t.has_pending_join &&
         t.flushed_count == t.event_log.size() && t.guard.empty() &&
         t.rollbacks.empty(scrubs_) && t.cdg.empty(scrubs_);
}

void SpeculativeProcess::advance_retired() {
  for (auto it = live_begin(); it != threads_.end() && retirable(it->second);
       ++it) {
    ++work_.bookkeeping_steps;
    // Everything left in its tables is scrubbed: free it.
    it->second.cdg.clear();
    it->second.rollbacks.clear();
    retired_below_ = it->first + 1;
  }
}

void SpeculativeProcess::refresh_rollback_index() const {
  if (!rollback_index_stale_) return;
  rollback_index_.clear();
  for (auto it = live_begin(); it != threads_.end(); ++it) {
    it->second.rollbacks.for_each(
        scrubs_, [&](const GuessId& g, const StateIndex& rb) {
          ++work_.bookkeeping_steps;
          if (history_.status(g) == GuessStatus::kUnknown) {
            rollback_index_.add(g, rb);
          }
        });
  }
  rollback_index_stale_ = false;
}

// ---------------------------------------------------------------------------
// Retained state: checkpoints, replay metadata, logged inputs
// ---------------------------------------------------------------------------

void SpeculativeProcess::ledger_set(const StateIndex& key,
                                    bool LedgerEntry::*flag, bool on,
                                    std::uint64_t seq) {
  auto lit = ledger_.find(key.thread);
  if (lit == ledger_.end()) {
    if (!on) return;
    lit = ledger_.emplace(key.thread, ThreadLedger{}).first;
  }
  ThreadLedger& led = lit->second;
  if (led.entries.size() >= 2) {
    ledger_heads_.erase({led.entries.begin()->first, key.thread});
  }
  if (on) {
    LedgerEntry& e = led.entries[key];
    if (flag == &LedgerEntry::input) {
      OCSP_CHECK_MSG(!e.input, "two logged inputs at one state index");
      e.input_seq = seq;
    }
    e.*flag = true;
    if (flag == &LedgerEntry::checkpoint) led.checkpoints.insert(key);
  } else if (auto e = led.entries.find(key); e != led.entries.end()) {
    e->second.*flag = false;
    if (flag == &LedgerEntry::checkpoint) led.checkpoints.erase(key);
    if (!e->second.checkpoint && !e->second.meta && !e->second.input) {
      led.entries.erase(e);
    }
  }
  if (led.entries.size() >= 2) {
    ledger_heads_.insert({led.entries.begin()->first, key.thread});
  } else if (led.entries.empty()) {
    ledger_.erase(lit);
  }
}

void SpeculativeProcess::put_checkpoint(const StateIndex& key,
                                        ThreadCtx snapshot) {
  checkpoints_.insert_or_assign(key, std::move(snapshot));
  ledger_set(key, &LedgerEntry::checkpoint, true);
}

void SpeculativeProcess::erase_checkpoint(StateIndex key) {
  checkpoints_.erase(key);
  ledger_set(key, &LedgerEntry::checkpoint, false);
}

void SpeculativeProcess::log_input(const StateIndex& at, const StateIndex& pre,
                                   const net::Envelope& env) {
  const std::uint64_t seq = next_input_seq_++;
  input_log_.emplace(seq, LoggedInput{at, pre, env});
  ledger_set(at, &LedgerEntry::input, true, seq);
}

void SpeculativeProcess::prune_thread_state(std::uint32_t thread,
                                            const StateIndex* bound) {
  auto lit = ledger_.find(thread);
  if (lit == ledger_.end()) return;
  ThreadLedger& led = lit->second;
  if (led.entries.size() >= 2) {
    ledger_heads_.erase({led.entries.begin()->first, thread});
  }
  while (!led.entries.empty() &&
         (bound == nullptr || led.entries.begin()->first < *bound)) {
    ++work_.bookkeeping_steps;
    auto e = led.entries.begin();
    if (e->second.checkpoint) {
      checkpoints_.erase(e->first);
      led.checkpoints.erase(e->first);
      ++stats_.checkpoints_pruned;
    }
    if (e->second.meta) replay_meta_.erase(e->first);
    if (e->second.input) {
      input_log_.erase(e->second.input_seq);
      ++stats_.log_entries_pruned;
    }
    led.entries.erase(e);
  }
  if (led.entries.size() >= 2) {
    ledger_heads_.insert({led.entries.begin()->first, thread});
  } else if (led.entries.empty()) {
    ledger_.erase(lit);
  }
}

const StateIndex* SpeculativeProcess::latest_checkpoint(
    std::uint32_t thread, const StateIndex* bound) const {
  auto lit = ledger_.find(thread);
  if (lit == ledger_.end()) return nullptr;
  const std::set<StateIndex>& cps = lit->second.checkpoints;
  auto it = bound == nullptr ? cps.end() : cps.upper_bound(*bound);
  if (it == cps.begin()) return nullptr;
  return &*std::prev(it);
}

const StateIndex* SpeculativeProcess::restore_base_key(
    const StateIndex& target) const {
  return latest_checkpoint(target.thread, &target);
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

void SpeculativeProcess::gc_resolved_state() {
  // The earliest state a future rollback can target is the minimum
  // rollback point over every still-unresolved dependency.
  refresh_rollback_index();
  const StateIndex* low_ptr = rollback_index_.low();
  const bool any_unresolved = low_ptr != nullptr;
  const StateIndex low = any_unresolved ? *low_ptr : StateIndex{};

  // Threads that are dead (terminated or gone) and targeted by no
  // unresolved rollback entry can never be resurrected; drop their state
  // wholesale.  A dead thread still targeted stays a candidate.
  for (auto it = dead_candidates_.begin(); it != dead_candidates_.end();) {
    ++work_.bookkeeping_steps;
    const std::uint32_t idx = *it;
    auto th = threads_.find(idx);
    const bool alive = th != threads_.end() &&
                       th->second.phase != ThreadCtx::Phase::kTerminated;
    if (alive || ledger_.count(idx) == 0) {
      it = dead_candidates_.erase(it);
    } else if (rollback_index_.targets(idx)) {
      ++it;
    } else {
      prune_thread_state(idx, nullptr);
      it = dead_candidates_.erase(it);
    }
  }

  // Per thread, the replay strategy rebuilds from the latest full
  // checkpoint at or before the rollback target, so keep the greatest
  // checkpoint key <= low (or the greatest overall when nothing is in
  // doubt) and discard everything strictly older, along with the logged
  // inputs and replay metadata those checkpoints subsume.  Only a thread
  // whose oldest entry lies below low can have anything to discard.
  std::vector<std::uint32_t> visit;
  for (const auto& [head, thread] : ledger_heads_) {
    if (any_unresolved && !(head < low)) break;
    ++work_.bookkeeping_steps;
    visit.push_back(thread);
  }
  for (const std::uint32_t thread : visit) {
    const StateIndex* keep =
        latest_checkpoint(thread, any_unresolved ? &low : nullptr);
    if (keep == nullptr) continue;
    const StateIndex bound = *keep;
    prune_thread_state(thread, &bound);
  }

  // Resolved guesses need no targeted-control bookkeeping either.
  for (auto it = spread_.begin(); it != spread_.end();) {
    ++work_.bookkeeping_steps;
    if (history_.status(it->first) != GuessStatus::kUnknown) {
      it = spread_.erase(it);
    } else {
      ++it;
    }
  }
  prune_scrub_log();
#ifndef NDEBUG
  verify_bookkeeping();
#endif
}

void SpeculativeProcess::prune_scrub_log() {
  if (!scrubs_.wants_prune()) return;
  std::unordered_set<const void*> seen;
  std::unordered_set<GuessId, GuessIdHash> held;
  std::uint64_t floor = scrubs_.now();
  std::size_t swept = 0;
  auto sweep = [&](const ThreadCtx& t) {
    swept += t.cdg.for_each_stored_once(
        seen, [&](const GuessId& g) { held.insert(g); });
    swept += t.rollbacks.for_each_stored_once(
        seen, [&](const GuessId& g, const StateIndex&, std::uint64_t) {
          held.insert(g);
        });
  };
  // Retired threads' tables are empty.
  for (auto it = live_begin(); it != threads_.end(); ++it) {
    ++swept;
    sweep(it->second);
  }
  for (const auto& [key, cp] : checkpoints_) {
    ++swept;
    sweep(cp);
    floor = std::min(floor, cp.checkpointed_clock);
  }
  work_.bookkeeping_steps += swept;
  scrubs_.prune(held, floor, swept);
}

// ---- GVT fossil collection --------------------------------------------

sim::Time SpeculativeProcess::speculation_floor() const {
  refresh_rollback_index();
  sim::Time floor = sim::kTimeNever;
  for (const auto& [rb, pairs] : rollback_index_.points()) {
    ++work_.bookkeeping_steps;
    const StateIndex* base = restore_base_key(rb);
    // A missing base means the rollback would fail anyway (it cannot in
    // a correct run); be conservative and pin the floor at zero.
    floor = std::min(floor,
                     base ? checkpoints_.at(*base).checkpointed_at
                          : sim::Time{0});
  }
  return floor;
}

std::size_t SpeculativeProcess::fossil_collect(sim::Time gvt) {
  // Checkpoints a future rollback can still restore from:  the replay base
  // of every unresolved rollback target (exactly restore_thread's lookup),
  // plus the latest checkpoint of each live thread — a dependency acquired
  // later replays from there, whatever its target turns out to be.
  refresh_rollback_index();
  std::set<StateIndex> needed;
  for (const auto& [rb, pairs] : rollback_index_.points()) {
    ++work_.bookkeeping_steps;
    if (const StateIndex* base = restore_base_key(rb)) needed.insert(*base);
  }
  for (auto it = live_begin(); it != threads_.end(); ++it) {
    ++work_.bookkeeping_steps;
    if (it->second.phase == ThreadCtx::Phase::kTerminated) continue;
    if (const StateIndex* latest = latest_checkpoint(it->first, nullptr)) {
      needed.insert(*latest);
    }
  }

  std::size_t freed = 0;
  for (auto it = checkpoints_.begin(); it != checkpoints_.end();) {
    ++work_.bookkeeping_steps;
    auto next = std::next(it);
    if (it->second.checkpointed_at < gvt && needed.count(it->first) == 0) {
      erase_checkpoint(it->first);
      ++freed;
    }
    it = next;
  }
  stats_.checkpoints_fossil_collected += freed;
  return freed;
}

std::vector<sim::Time> SpeculativeProcess::checkpoint_times() const {
  std::vector<sim::Time> times;
  times.reserve(checkpoints_.size());
  for (const auto& [key, snapshot] : checkpoints_) {
    times.push_back(snapshot.checkpointed_at);
  }
  return times;
}

// ---------------------------------------------------------------------------
// Debug cross-check
// ---------------------------------------------------------------------------

void SpeculativeProcess::verify_bookkeeping() const {
  const ScrubLog::Quiet quiet(scrubs_);

  // Retired prefix: every thread below the watermark is retirable.  Check
  // the 64 threads just below it: older ones were checked while they were
  // there, and a retired thread cannot change without being replaced,
  // which lowers the watermark.
  constexpr std::uint32_t kPrefixWindow = 64;
  const std::uint32_t from =
      retired_below_ > kPrefixWindow ? retired_below_ - kPrefixWindow : 0;
  for (auto it = threads_.lower_bound(from);
       it != threads_.end() && it->first < retired_below_; ++it) {
    OCSP_CHECK_MSG(retirable(it->second), "retired thread is live");
  }

  // Rollback index: earliest unresolved rollback point and targeted
  // threads, recomputed from every stored entry of every live thread's
  // map, filtered one by one.  A subtree several maps share (forks,
  // checkpoints) is walked once: its entries would add the same points
  // again.  Every guess a stored entry names must be one the scrub log
  // still tracks, or a later scrub of it would be lost.
  std::unordered_set<const void*> seen;
  auto tracked = [&](const GuessId& g) {
    OCSP_CHECK_MSG(scrubs_.tracks(g), "scrub log forgot a stored guess");
  };
  StateIndex low{};
  bool any_unresolved = false;
  std::set<std::uint32_t> targets;
  std::set<std::uint32_t> message, join, done;
  std::map<GuessId, std::vector<std::uint32_t>> guard_holders;
  std::set<std::pair<GuessId, std::uint32_t>> edge_pairs;
  for (const auto& [g, threads] : edge_holders_) {
    for (const std::uint32_t idx : threads) edge_pairs.emplace(g, idx);
  }
  // Retired threads have empty guards.
  for (auto it = live_begin(); it != threads_.end(); ++it) {
    const ThreadCtx& t = it->second;
    for (const auto& g : t.guard) guard_holders[g].push_back(it->first);
    if (t.phase == ThreadCtx::Phase::kAwaitMessage) message.insert(it->first);
    if (t.phase == ThreadCtx::Phase::kJoinWait) join.insert(it->first);
    if (t.phase == ThreadCtx::Phase::kDoneWaitGuard) done.insert(it->first);
    t.rollbacks.for_each_stored_once(
        seen,
        [&](const GuessId& g, const StateIndex& rb, std::uint64_t stamp) {
          tracked(g);
          if (scrubs_.rollback_hidden(g, stamp) ||
              history_.status(g) != GuessStatus::kUnknown) {
            return;
          }
          if (!any_unresolved || rb < low) low = rb;
          any_unresolved = true;
          targets.insert(rb.thread);
        });
    t.cdg.for_each_stored_once(seen, tracked);
    // Edge holders: a superset of the threads holding an edge at a guess.
    t.cdg.for_each_edge(
        [&](const GuessId& from, const GuessId& to) {
          OCSP_CHECK_MSG(edge_pairs.count({from, it->first}) == 1 &&
                             edge_pairs.count({to, it->first}) == 1,
                         "CDG edge holder not indexed");
        },
        scrubs_);
  }
  for (const auto& [key, cp] : checkpoints_) {
    OCSP_CHECK_MSG(cp.checkpointed_clock >= scrubs_.floor(),
                   "scrub log forgot scrubs a checkpoint can ask about");
    cp.rollbacks.for_each_stored_once(
        seen, [&](const GuessId& g, const StateIndex&, std::uint64_t) {
          tracked(g);
        });
    cp.cdg.for_each_stored_once(seen, tracked);
  }
  OCSP_CHECK_MSG(guard_holders == guard_holders_,
                 "guard-holder index disagrees with the guards");
  verify_lazy_tables();
  OCSP_CHECK_MSG(!rollback_index_stale_, "rollback index left stale");
  std::set<std::uint32_t> indexed;
  for (const auto& [thread, pairs] : rollback_index_.target_threads()) {
    indexed.insert(thread);
  }
  OCSP_CHECK_MSG(any_unresolved == (rollback_index_.low() != nullptr),
                 "rollback index disagrees on unresolved dependencies");
  OCSP_CHECK_MSG(!any_unresolved || *rollback_index_.low() == low,
                 "rollback index disagrees on the earliest rollback point");
  OCSP_CHECK_MSG(indexed == targets, "rollback index disagrees on targets");
  OCSP_CHECK_MSG(message == awaiting_message_ && join == join_waiting_ &&
                     done == done_waiting_,
                 "phase sets disagree with the thread table");

  // Ledger mirrors the three retained-state containers.
  std::size_t cps = 0, metas = 0, inputs = 0;
  for (const auto& [thread, led] : ledger_) {
    OCSP_CHECK(!led.entries.empty());
    for (const auto& [key, e] : led.entries) {
      OCSP_CHECK(key.thread == thread);
      if (e.checkpoint) {
        ++cps;
        OCSP_CHECK(checkpoints_.count(key) == 1 &&
                   led.checkpoints.count(key) == 1);
      }
      if (e.meta) {
        ++metas;
        OCSP_CHECK(replay_meta_.count(key) == 1);
      }
      if (e.input) {
        ++inputs;
        auto in = input_log_.find(e.input_seq);
        OCSP_CHECK(in != input_log_.end() && in->second.at == key);
      }
    }
    OCSP_CHECK(led.checkpoints.size() <= led.entries.size());
  }
  OCSP_CHECK_MSG(cps == checkpoints_.size() && metas == replay_meta_.size() &&
                     inputs == input_log_.size(),
                 "ledger disagrees with the retained state");

  // GC outcome: nothing the original whole-state rule would prune is left.
  std::map<std::uint32_t, StateIndex> keep_from;
  for (const auto& [key, snapshot] : checkpoints_) {
    if (any_unresolved && low < key) continue;
    auto [it, inserted] = keep_from.try_emplace(key.thread, key);
    if (!inserted && it->second < key) it->second = key;
  }
  auto prunable = [&](const StateIndex& key) {
    auto th = threads_.find(key.thread);
    const bool dead = th == threads_.end() ||
                      th->second.phase == ThreadCtx::Phase::kTerminated;
    if (dead && targets.count(key.thread) == 0) return true;
    auto keep = keep_from.find(key.thread);
    return keep != keep_from.end() && key < keep->second;
  };
  for (const auto& [key, snapshot] : checkpoints_) {
    OCSP_CHECK_MSG(!prunable(key), "GC left a prunable checkpoint");
  }
  for (const auto& [key, meta] : replay_meta_) {
    OCSP_CHECK_MSG(!prunable(key), "GC left prunable replay metadata");
  }
  for (const auto& [seq, entry] : input_log_) {
    OCSP_CHECK_MSG(!prunable(entry.at), "GC left a prunable logged input");
  }
}

void SpeculativeProcess::verify_lazy_tables() const {
  // Every live thread, every call; a node forks and checkpoints share is
  // checked once per call.
  Cdg::Checked cdg_nodes;
  RollbackMap::Checked rollback_nodes;
  for (auto it = live_begin(); it != threads_.end(); ++it) {
    it->second.cdg.verify_lazy(scrubs_, cdg_nodes);
    it->second.rollbacks.verify_lazy(scrubs_, rollback_nodes);
  }
}

void SpeculativeProcess::verify_join_wakeups() const {
  for (const std::uint32_t idx : join_waiting_) {
    const ThreadCtx& t = threads_.at(idx);
    const bool can_move = t.join_guess_aborted
                              ? threads_.count(t.join_right_index) == 0
                              : t.guard.empty();
    OCSP_CHECK_MSG(!can_move, "JoinWait thread left without a wake-up");
  }
}

}  // namespace ocsp::spec
