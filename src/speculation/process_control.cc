// Control-message processing and rollback (sections 4.1.3, 4.2.5-4.2.8).
//
// COMMIT removes a guess (and its implied-committed CDG predecessors) from
// every thread: from the guards that hold it, and from every CDG and
// rollback map at once by recording the scrub (scrub_log.h).  ABORT
// computes the Abortset per thread, finds the earliest rollback point,
// kills every thread created after it, restores the target thread from
// its checkpoint, cascades ABORTs for our own guesses that died,
// and requeues the non-orphan input messages that were consumed after the
// restore point (Figure 5: "Z must re-read message C2 after rolling back").
// PRECEDENCE adds CDG edges and aborts our own guesses on any cycle (time
// fault, Figures 4 and 7).
#include <algorithm>

#include "speculation/process.h"
#include "speculation/runtime.h"
#include "util/check.h"
#include "util/logging.h"

namespace ocsp::spec {

// ---------------------------------------------------------------------------
// Distribution
// ---------------------------------------------------------------------------

void SpeculativeProcess::distribute_control(ControlKind kind,
                                            const GuessId& subject,
                                            const GuardSet& guard) {
  auto msg = std::make_shared<ControlMessage>();
  msg->control = kind;
  msg->subject = subject;
  msg->guard = guard;

  std::vector<ProcessId> recipients;
  if (config_.control == ControlPlane::kBroadcast ||
      kind == ControlKind::kPrecedence) {
    // PRECEDENCE is always broadcast: cycle detection needs every involved
    // owner to learn the ordering constraint (Figure 7 has both X and Z
    // discover the cycle independently).
    recipients = runtime_.all_process_ids();
  } else {
    auto it = spread_.find(subject);
    if (it != spread_.end()) recipients = it->second;
  }
  {
    std::uint64_t fanout = 0;
    for (ProcessId dst : recipients) {
      if (dst != id_) ++fanout;
    }
    obs::Event ev = make_event(obs::EventKind::kControlSent);
    ev.guess = guess_ref(subject);
    ev.control = obs_control(kind);
    ev.a = fanout;
    recorder().record(std::move(ev));
    obs::control_fanout_hist(live_metrics_).add(static_cast<double>(fanout));
  }
  const int repeats =
      config_.control_retry ? config_.control_retry_limit : 1;
  for (ProcessId dst : recipients) {
    if (dst == id_) continue;  // local processing already happened
    for (int i = 0; i < repeats; ++i) {
      const sim::Time delay =
          static_cast<sim::Time>(i) * config_.control_retry_interval;
      if (i == 0) {
        ++stats_.control_sent;
        runtime_.net_send(id_, dst, msg);
      } else {
        runtime_.scheduler().after(delay, [this, dst, msg]() {
          ++stats_.control_sent;
          runtime_.net_send(id_, dst, msg);
        });
      }
    }
  }
}

// ---------------------------------------------------------------------------
// COMMIT (4.2.6)
// ---------------------------------------------------------------------------

void SpeculativeProcess::on_commit_msg(const GuessId& g) {
  commit_guess_local(g);
}

void SpeculativeProcess::commit_guess_local(const GuessId& g) {
  std::vector<GuessId> queue{g};
  while (!queue.empty()) {
    GuessId h = queue.back();
    queue.pop_back();
    // Already-committed guesses are processed again: that still scrubs any
    // CDG/guard entry written since the last time.
    set_guess_status(h, GuessStatus::kCommitted);
    // Predecessors of a committed guess must have committed too: a guess
    // only commits after everything in its guard resolved.  Only threads
    // holding an edge at h can name one.
    for (const std::uint32_t idx : take_holders(edge_holders_, h)) {
      ++work_.bookkeeping_steps;
      auto it = threads_.find(idx);
      if (it == threads_.end()) continue;
      for (const auto& p : it->second.cdg.predecessors(h, scrubs_)) {
        if (history_.status(p) != GuessStatus::kCommitted) queue.push_back(p);
      }
    }
    // h leaves every live CDG and rollback map at once...
    scrubs_.commit(h);
    // ...and every guard holding it.
    for (const std::uint32_t idx : take_holders(guard_holders_, h)) {
      ++work_.bookkeeping_steps;
      ThreadCtx& t = threads_.at(idx);
      t.guard.erase(h);
      if (t.phase == ThreadCtx::Phase::kJoinWait) wake_join(idx);
    }
  }
}

// ---------------------------------------------------------------------------
// ABORT (4.2.7) and rollback (4.1.3)
// ---------------------------------------------------------------------------

void SpeculativeProcess::on_abort_msg(const GuessId& g) {
  if (history_.status(g) == GuessStatus::kAborted) return;
  ++stats_.aborts_cascade;
  record_abort(g, obs::AbortReason::kCascade, "remote-abort");
  abort_guess_local(g);
}

void SpeculativeProcess::abort_guess_local(const GuessId& g) {
  // Everything the abort-processing loop below destroys is collateral
  // damage of `g`; stamp the cause so attribution can walk it back.
  const GuessId saved_cause = rollback_cause_;
  rollback_cause_ = g;
  set_guess_status(g, GuessStatus::kAborted);
  // The abort of x_{i,n} starts incarnation i+1 at index n: every guess
  // x_{i,m} with m >= n is implicitly aborted (4.1.2).
  note_incarnation(g.owner, g.incarnation + 1, g.index);

  timeline().record({trace::TimelineEntry::Kind::kAbort,
                     runtime_.scheduler().now(), id_, kNoProcess,
                     g.to_string()});

  rollback_aborted_dependencies();
  // Scrub the aborted guess's CDG node from the untouched threads.
  scrubs_.abort(g);
  edge_holders_.erase(g);
  rollback_cause_ = saved_cause;
}

void SpeculativeProcess::rollback_aborted_dependencies() {
  // Abortset per thread: guard members now aborted, plus guard members
  // that follow an aborted guess in the CDG.  Roll back to the earliest
  // rollback point among them (4.2.7).  Several threads may have acquired
  // the dependency independently, and a rollback only scrubs the threads it
  // touches, so iterate until no thread carries an aborted dependency.
  for (int pass = 0;; ++pass) {
    OCSP_CHECK_MSG(pass < 1024, "abort rollback did not converge");
    bool found = false;
    StateIndex target{};
    // Retired threads hold no rollback entries.
    for (auto it = live_begin(); it != threads_.end(); ++it) {
      ThreadCtx& t = it->second;
      ++work_.bookkeeping_steps;
      std::vector<GuessId> abortset;
      // Walk the full acquisition record, not just the guard set: the
      // one-guess-per-owner subsumption (4.1.5) may have replaced an
      // earlier aborted guess, but the state became contaminated at the
      // earlier acquisition point.
      t.rollbacks.for_each(scrubs_, [&](const GuessId& a, const StateIndex&) {
        if (history_.status(a) == GuessStatus::kAborted) {
          abortset.push_back(a);
        }
      });
      // Followers of aborted guesses in the CDG also roll back.
      for (std::size_t i = 0; i < abortset.size(); ++i) {
        for (const auto& f : t.cdg.closure_from(abortset[i], scrubs_)) {
          if (t.guard.contains(f) &&
              std::find(abortset.begin(), abortset.end(), f) ==
                  abortset.end()) {
            abortset.push_back(f);
          }
        }
      }
      for (const auto& a : abortset) {
        const StateIndex* rb = t.rollbacks.find(a, scrubs_);
        OCSP_CHECK_MSG(rb != nullptr, "guard member without rollback");
        if (!found || *rb < target) {
          found = true;
          target = *rb;
        }
      }
    }
    if (!found) break;
    rollback_to(target, /*kill_target_thread=*/false);
  }
}

void SpeculativeProcess::abort_own_guess(const GuessId& g,
                                         const char* reason) {
  if (history_.status(g) != GuessStatus::kUnknown) return;
  OCSP_CHECK(g.owner == id_);
  set_guess_status(g, GuessStatus::kAborted);
  note_incarnation(id_, g.incarnation + 1, g.index);
  timeline().record({trace::TimelineEntry::Kind::kAbort,
                     runtime_.scheduler().now(), id_, kNoProcess,
                     g.to_string() + std::string(" (") + reason + ")"});

  // Track consecutive failures of the fork site for the liveness limit L.
  auto site_of = [this](std::uint32_t index) -> std::string {
    auto it = threads_.find(index);
    return it != threads_.end() && it->second.has_own_guess
               ? it->second.own_site
               : std::string();
  };
  if (auto site = site_of(g.index); !site.empty()) {
    ++site_aborts_[site];
    governor_outcome(site, /*aborted=*/true);
  }

  // Kill the guarded thread and everything the chain forked after it.
  const GuessId saved_cause = rollback_cause_;
  rollback_cause_ = g;
  std::vector<GuessId> cascade;
  std::vector<std::uint32_t> doomed;
  for (auto it = threads_.lower_bound(g.index); it != threads_.end(); ++it) {
    ++work_.bookkeeping_steps;
    doomed.push_back(it->first);
  }
  for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
    kill_thread(*it, cascade);
  }
  rollback_cause_ = saved_cause;
  if (!doomed.empty()) {
    ++incarnation_;
    incarnation_start_ = g.index;
    max_thread_ = g.index == 0 ? 0 : g.index - 1;
  }
  distribute_control(ControlKind::kAbort, g, {});
  std::uint64_t cascaded = 0;
  for (const auto& c : cascade) {
    if (c == g) continue;
    if (history_.status(c) == GuessStatus::kUnknown) {
      set_guess_status(c, GuessStatus::kAborted);
      note_incarnation(id_, c.incarnation + 1, c.index);
      ++stats_.aborts_cascade;
      ++cascaded;
      record_abort(c, obs::AbortReason::kCascade, "killed-with-thread", g);
      distribute_control(ControlKind::kAbort, c, {});
    }
  }
  obs::abort_cascade_depth_hist(live_metrics_)
      .add(static_cast<double>(cascaded));

  // Threads below g.index may have been contaminated by g through message
  // tags (the Figure 4 time fault); run the generic abort machinery.
  abort_guess_local(g);
  for (const auto& c : cascade) {
    if (!(c == g)) abort_guess_local(c);
  }

  // Mark the parent join so the left thread re-executes S2 when it
  // completes; if it is already waiting at the join, re-execute now.
  for (auto it = live_begin(); it != threads_.end(); ++it) {
    ThreadCtx& t = it->second;
    ++work_.bookkeeping_steps;
    if (t.has_pending_join && t.join_guess == g) {
      t.join_guess_aborted = true;
      cancel_fork_timer(g);
      if (t.phase == ThreadCtx::Phase::kJoinWait) {
        OCSP_CHECK(threads_.count(t.join_right_index) == 0);
        reexecute_right(t);
      }
      break;
    }
  }
  process_arrivals();
}

void SpeculativeProcess::kill_thread(std::uint32_t index,
                                     std::vector<GuessId>& own_aborted,
                                     bool emit_discard) {
  auto it = threads_.find(index);
  if (it == threads_.end()) return;
  ThreadCtx& t = it->second;
  if (emit_discard) {
    record_work_discarded(t, t.compute_ns, rollback_cause_);
  }
  if (t.phase == ThreadCtx::Phase::kDoneWaitGuard) {
    obs::Event ev = make_event(obs::EventKind::kThreadResolved);
    ev.thread = t.index;
    ev.interval = t.interval;
    ev.detail = "killed";
    recorder().record(std::move(ev));
  }
  if (t.has_own_guess) own_aborted.push_back(t.own_guess);
  if (t.has_pending_join && t.join_guess.valid()) {
    own_aborted.push_back(t.join_guess);
    cancel_fork_timer(t.join_guess);
  }
  auto timer = compute_timers_.find(index);
  if (timer != compute_timers_.end()) {
    runtime_.scheduler().cancel(timer->second);
    compute_timers_.erase(timer);
  }
  if (t.phase == ThreadCtx::Phase::kAwaitReply && t.outstanding_reqid >= 0) {
    outstanding_calls_.erase(t.outstanding_reqid);
  }
  for (std::size_t i = t.flushed_count; i < t.event_log.size(); ++i) {
    if (t.event_log[i].kind == trace::ObservableEvent::Kind::kExternalOutput) {
      ++stats_.externals_discarded;
      obs::Event ev = make_event(obs::EventKind::kExternalDiscarded);
      ev.thread = t.index;
      ev.a = i;
      ev.detail = t.event_log[i].data.to_string();
      recorder().record(std::move(ev));
      external_buffered_at_.erase({t.index, i});
    }
  }
  erase_thread(it);
}

void SpeculativeProcess::rollback_to(const StateIndex& target,
                                     bool kill_target_thread) {
  ++stats_.rollbacks;
  timeline().record({trace::TimelineEntry::Kind::kRollback,
                     runtime_.scheduler().now(), id_, kNoProcess,
                     target.to_string()});

  // Rollback distance: how many intervals the target thread is wound back.
  std::uint32_t pre_interval = target.interval;
  if (auto tgt = threads_.find(target.thread); tgt != threads_.end()) {
    pre_interval = std::max(pre_interval, tgt->second.interval);
  }

  // Kill every thread created after the restore point; the target thread
  // itself is restored (or killed too, for an own-guess abort at creation).
  std::vector<std::uint32_t> doomed;
  for (auto& [idx, t] : threads_) {
    ++work_.bookkeeping_steps;
    if (t.created_at > target) {
      doomed.push_back(idx);
    } else if (idx == target.thread) {
      doomed.push_back(idx);  // replaced by the checkpoint (or killed)
    }
  }

  // State recorded after the target by the rolled-back threads belongs to
  // the abandoned timeline; a later replay-base search must never pick it
  // up.  Threads that survive (forked before the restore point) keep
  // theirs.  The post-rollback re-execution records fresh state under the
  // bumped incarnation, created after this purge.
  std::vector<std::uint32_t> rolled_back = doomed;
  if (std::find(doomed.begin(), doomed.end(), target.thread) == doomed.end()) {
    rolled_back.push_back(target.thread);
  }
  // Keys of `thread`'s retained entries strictly after the target.
  auto abandoned_keys = [&](std::uint32_t thread) {
    std::vector<StateIndex> keys;
    auto led = ledger_.find(thread);
    if (led == ledger_.end()) return keys;
    for (auto it = led->second.entries.upper_bound(target);
         it != led->second.entries.end(); ++it) {
      ++work_.bookkeeping_steps;
      keys.push_back(it->first);
    }
    return keys;
  };
  for (const std::uint32_t thread : rolled_back) {
    for (const StateIndex& key : abandoned_keys(thread)) {
      const LedgerEntry e = ledger_.at(thread).entries.at(key);
      if (e.checkpoint) erase_checkpoint(key);
      if (e.meta) {
        replay_meta_.erase(key);
        ledger_set(key, &LedgerEntry::meta, false);
      }
    }
  }
  // The rollback target is restored from a checkpoint, not killed outright:
  // its discarded compute is whatever it accumulated beyond what the
  // restored checkpoint retains, so defer the accounting until after the
  // restore.  (If the target is killed too, or the checkpoint turns out to
  // be a zombie and gets dropped, the retained amount is simply zero.)
  sim::Time target_pre_compute = 0;
  ThreadCtx target_snapshot{};
  bool have_target = false;
  if (auto tgt = threads_.find(target.thread); tgt != threads_.end()) {
    target_pre_compute = tgt->second.compute_ns;
    target_snapshot.index = tgt->second.index;
    target_snapshot.interval = tgt->second.interval;
    target_snapshot.has_own_guess = tgt->second.has_own_guess;
    target_snapshot.own_guess = tgt->second.own_guess;
    target_snapshot.own_site = tgt->second.own_site;
    have_target = true;
  }
  std::vector<GuessId> cascade;
  for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
    const bool is_target = *it == target.thread && !kill_target_thread;
    kill_thread(*it, cascade, /*emit_discard=*/!is_target);
  }
  if (!doomed.empty()) ++incarnation_;
  rollback_index_stale_ = true;

  if (!kill_target_thread) {
    restore_thread(target);
    if (have_target) {
      sim::Time retained = 0;
      if (auto tgt = threads_.find(target.thread); tgt != threads_.end()) {
        retained = tgt->second.compute_ns;
      }
      if (target_pre_compute > retained) {
        record_work_discarded(target_snapshot, target_pre_compute - retained,
                              rollback_cause_);
      }
    }
  }
  max_thread_ = threads_.empty() ? 0 : threads_.rbegin()->first;

  // Cascade aborts for our own guesses that died with the killed threads.
  std::uint64_t cascaded = 0;
  for (const auto& c : cascade) {
    if (history_.status(c) == GuessStatus::kUnknown) {
      set_guess_status(c, GuessStatus::kAborted);
      note_incarnation(id_, c.incarnation + 1, c.index);
      ++stats_.aborts_cascade;
      ++cascaded;
      record_abort(c, obs::AbortReason::kCascade, "killed-by-rollback",
                   rollback_cause_);
      distribute_control(ControlKind::kAbort, c, {});
    }
  }
  obs::abort_cascade_depth_hist(live_metrics_)
      .add(static_cast<double>(cascaded));
  // Parents whose speculative child died must re-execute S2 at their join.
  for (auto it = live_begin(); it != threads_.end(); ++it) {
    ThreadCtx& t = it->second;
    ++work_.bookkeeping_steps;
    if (!t.has_pending_join || t.join_guess_aborted) continue;
    if (!t.join_guess.valid()) continue;
    if (history_.status(t.join_guess) == GuessStatus::kAborted) {
      t.join_guess_aborted = true;
      cancel_fork_timer(t.join_guess);
      if (t.phase == ThreadCtx::Phase::kJoinWait &&
          threads_.count(t.join_right_index) == 0) {
        reexecute_right(t);
      }
    }
  }

  // Requeue inputs consumed after the restore point (Figure 5); the orphan
  // filter runs again when they are re-delivered.  Only the rolled-back
  // threads' consumptions are undone; messages a surviving thread consumed
  // stay consumed.  Requeue in acceptance order.
  std::vector<std::uint64_t> undone;
  for (const std::uint32_t thread : rolled_back) {
    for (const StateIndex& key : abandoned_keys(thread)) {
      const LedgerEntry& e = ledger_.at(thread).entries.at(key);
      if (!e.input) continue;
      undone.push_back(e.input_seq);
      ledger_set(key, &LedgerEntry::input, false);
    }
  }
  std::sort(undone.begin(), undone.end());
  std::vector<net::Envelope> requeued;
  requeued.reserve(undone.size());
  for (const std::uint64_t seq : undone) {
    auto entry = input_log_.find(seq);
    requeued.push_back(std::move(entry->second.env));
    input_log_.erase(entry);
    ++stats_.messages_redelivered;
  }
  {
    obs::Event ev = make_event(obs::EventKind::kRollback);
    ev.thread = target.thread;
    ev.interval = target.interval;
    ev.a = doomed.size();
    ev.b = requeued.size();
    ev.detail = target.to_string();
    recorder().record(std::move(ev));
    obs::rollback_distance_hist(live_metrics_)
        .add(static_cast<double>(pre_interval - target.interval));
  }
  for (auto it = requeued.rbegin(); it != requeued.rend(); ++it) {
    queue_pending(*it, /*front=*/true);
  }

  process_arrivals();
}

ThreadCtx SpeculativeProcess::rebuild_by_replay(const StateIndex& base,
                                                const StateIndex& target) {
  ++stats_.replays;
  ThreadCtx t = thaw_checkpoint(checkpoints_.at(base));
  stats_.rollback_restore_bytes += restore_cost_bytes(t.machine);
  if (config_.state == StateStrategy::kDeepCopy) {
    t.machine.deep_copy_state();
  }
  auto meta_it = replay_meta_.find(target);
  OCSP_CHECK_MSG(meta_it != replay_meta_.end(),
                 ("missing replay metadata at " + target.to_string() +
                  " base " + base.to_string() + " in " + name_)
                     .c_str());
  const ReplayMeta meta = meta_it->second;

  replaying_ = true;
  // The thread's inputs in (base, target], in acceptance order (a thread's
  // state indexes grow with its acceptances).
  if (auto led = ledger_.find(target.thread); led != ledger_.end()) {
    for (auto it = led->second.entries.upper_bound(base);
         it != led->second.entries.end() && !(target < it->first); ++it) {
      ++work_.bookkeeping_steps;
      if (!it->second.input) continue;
      // A periodic (mid-wait) checkpoint base starts out already blocked
      // at the receive/reply the first logged entry answers.
      if (t.machine.state() == csp::MachineState::kReady) {
        replay_until_blocked(t);
      }
      replay_feed(t, input_log_.at(it->second.input_seq));
    }
  }
  if (t.machine.state() == csp::MachineState::kReady) {
    replay_until_blocked(t);
  }
  replaying_ = false;

  // Deterministic replay must land exactly where the original execution
  // was when the dependency arrived.
  OCSP_CHECK_MSG(t.sent_count == meta.sent_count,
                 ("replay diverged: sent=" + std::to_string(t.sent_count) +
                  " expected=" + std::to_string(meta.sent_count) + " base=" +
                  base.to_string() + " target=" + target.to_string() +
                  " in " + name_)
                     .c_str());
  OCSP_CHECK(t.event_log.size() >= meta.flushed_count);
  t.flushed_count = meta.flushed_count;
  t.outstanding_reqid = meta.outstanding_reqid;
  return t;
}

void SpeculativeProcess::replay_until_blocked(ThreadCtx& t) {
  using K = csp::Effect::Kind;
  for (;;) {
    csp::Effect e = t.machine.step();
    switch (e.kind) {
      case K::kCall: {
        trace::ObservableEvent ev;
        ev.kind = trace::ObservableEvent::Kind::kSend;
        ev.process = id_;
        ev.peer = resolve(e.target);
        ev.op = e.op;
        ev.data = csp::Value(e.args);
        record_event(t, std::move(ev));
        ++t.sent_count;  // the original send already went out
        t.phase = ThreadCtx::Phase::kAwaitReply;
        return;
      }
      case K::kSend: {
        trace::ObservableEvent ev;
        ev.kind = trace::ObservableEvent::Kind::kSend;
        ev.process = id_;
        ev.peer = resolve(e.target);
        ev.op = e.op;
        ev.data = csp::Value(e.args);
        record_event(t, std::move(ev));
        ++t.sent_count;
        break;
      }
      case K::kReply:
        ++t.sent_count;
        break;
      case K::kPrint: {
        trace::ObservableEvent ev;
        ev.kind = trace::ObservableEvent::Kind::kExternalOutput;
        ev.process = id_;
        ev.data = e.value;
        record_event(t, std::move(ev));
        break;
      }
      case K::kCompute:
        // State reconstruction is instantaneous; the original already paid
        // the virtual time.  The replayed durations re-enter compute_ns so
        // the rebuilt thread accounts for the same useful work the original
        // had done by the target point (see ThreadCtx::compute_ns).
        t.compute_ns += e.duration;
        t.machine.resume();
        break;
      case K::kReceive:
        t.phase = ThreadCtx::Phase::kAwaitMessage;
        return;
      case K::kFork:
      case K::kDone:
        // Fork checkpoints bound every replay segment, and rollback targets
        // are always pre-acceptance states of a live thread.
        OCSP_CHECK_MSG(false, "unexpected effect during replay");
        return;
    }
  }
}

void SpeculativeProcess::replay_feed(ThreadCtx& t, const LoggedInput& entry) {
  const net::Envelope& env = entry.env;
  const auto msg = std::static_pointer_cast<const DataMessage>(env.payload);

  // Reproduce the original acceptance bookkeeping verbatim: the rebuilt
  // state must carry the *original* state indexes (incarnations included),
  // because rollback entries, replay metadata, and the input log are all
  // keyed by them.
  for (const auto& g : msg->guard.minus(t.guard)) {
    // Keep aborted guesses too: the original state at this point carried
    // them, and the abort-processing loop uses their presence to decide to
    // roll back even further.  Only committed guesses stopped being
    // dependencies.
    if (history_.status(g) == GuessStatus::kCommitted) continue;
    t.guard.add(g);
    t.cdg.add_node(g, scrubs_);
    t.rollbacks.assign(g, entry.pre, scrubs_);
  }
  t.interval = entry.at.interval;

  if (msg->data_kind == DataKind::kReturn) {
    OCSP_CHECK(t.phase == ThreadCtx::Phase::kAwaitReply);
    t.machine.resume_with_value(msg->result);
    t.phase = ThreadCtx::Phase::kRunning;
    t.outstanding_reqid = -1;
    trace::ObservableEvent ev;
    ev.kind = trace::ObservableEvent::Kind::kCallReturn;
    ev.process = id_;
    ev.peer = env.src;
    ev.data = msg->result;
    record_event(t, std::move(ev));
  } else {
    OCSP_CHECK(t.phase == ThreadCtx::Phase::kAwaitMessage);
    t.machine.deliver(msg->op, msg->args, static_cast<std::int64_t>(env.src),
                      msg->reqid,
                      /*is_call=*/msg->data_kind == DataKind::kCall);
    t.phase = ThreadCtx::Phase::kRunning;
    trace::ObservableEvent ev;
    ev.kind = trace::ObservableEvent::Kind::kReceive;
    ev.process = id_;
    ev.peer = env.src;
    ev.op = msg->op;
    ev.data = csp::Value(msg->args);
    record_event(t, std::move(ev));
  }
}

void SpeculativeProcess::restore_thread(const StateIndex& target) {
  ThreadCtx restored;
  auto cp = checkpoints_.find(target);
  if (cp != checkpoints_.end()) {
    restored = thaw_checkpoint(cp->second);  // the checkpoint stays usable
    stats_.rollback_restore_bytes += restore_cost_bytes(restored.machine);
    if (config_.state == StateStrategy::kDeepCopy) {
      restored.machine.deep_copy_state();
    }
  } else {
    // Replay strategy: no per-interval checkpoint exists.  Find the latest
    // full checkpoint of this thread at or before the target (its creation
    // or a post-fork snapshot) and replay the logged inputs on top of it.
    OCSP_CHECK_MSG(config_.rollback == RollbackStrategy::kReplayFromLog,
                   "missing rollback checkpoint");
    const StateIndex* base = restore_base_key(target);
    OCSP_CHECK_MSG(base != nullptr, "no replay base checkpoint");
    restored = rebuild_by_replay(*base, target);
  }
  const std::uint32_t idx = restored.index;

  if (restored.has_own_guess &&
      history_.status(restored.own_guess) == GuessStatus::kAborted) {
    // Zombie checkpoint: the guess guarding this thread's very existence
    // has aborted, so the parent's re-execution of S2 supersedes the whole
    // thread — restoring it would resurrect an aborted computation and the
    // abort-processing loop would never converge.  Make sure any guess this
    // state forked is dead too, then drop it.
    if (restored.has_pending_join && restored.join_guess.valid() &&
        history_.status(restored.join_guess) == GuessStatus::kUnknown) {
      set_guess_status(restored.join_guess, GuessStatus::kAborted);
      note_incarnation(id_, restored.join_guess.incarnation + 1,
                       restored.join_guess.index);
      ++stats_.aborts_cascade;
      record_abort(restored.join_guess, obs::AbortReason::kCascade,
                   "zombie-checkpoint", rollback_cause_);
      distribute_control(ControlKind::kAbort, restored.join_guess, {});
    }
    return;
  }

  // The checkpoint predates everything we have since learned: scrub guard
  // members that have committed in the meantime (leaving aborted ones for
  // the abort-processing loop, which must roll back further for those).
  std::vector<GuessId> committed_since;
  for (const auto& g : restored.guard) {
    if (history_.status(g) == GuessStatus::kCommitted) {
      committed_since.push_back(g);
    }
  }
  for (const auto& g : committed_since) {
    restored.guard.erase(g);
    restored.cdg.remove_node(g, scrubs_);
    restored.rollbacks.erase(g);
  }
  // (Committed non-guard entries stay, as they would in a copy of the
  // checkpoint: the next scrub of their guess removes them.)

  switch (restored.phase) {
    case ThreadCtx::Phase::kRunning:
      schedule_step(idx);
      break;
    case ThreadCtx::Phase::kAwaitReply:
      OCSP_CHECK(restored.outstanding_reqid >= 0);
      outstanding_calls_[restored.outstanding_reqid] = idx;
      break;
    case ThreadCtx::Phase::kAwaitMessage:
      break;  // process_arrivals() follows the rollback
    default:
      OCSP_CHECK_MSG(false, "checkpoint captured an unexpected phase");
  }
  // Re-arm the fork timer if the restored state has an unresolved join
  // pending (conservatively with the full timeout).
  if (restored.has_pending_join && restored.join_guess.valid() &&
      !restored.join_guess_aborted) {
    if (history_.status(restored.join_guess) == GuessStatus::kUnknown) {
      arm_fork_timer(restored.join_guess, config_.fork_timeout);
    } else if (history_.status(restored.join_guess) ==
               GuessStatus::kAborted) {
      restored.join_guess_aborted = true;
    }
  }
  insert_thread(std::move(restored));
  rollback_index_stale_ = true;  // the checkpoint's pairs are not indexed
}

// ---------------------------------------------------------------------------
// PRECEDENCE (4.2.8)
// ---------------------------------------------------------------------------

void SpeculativeProcess::on_precedence_msg(const GuessId& subject,
                                           const GuardSet& guard) {
  set_guess_status(subject, GuessStatus::kUnknown);

  // Collect cycles first: aborting mutates threads_ under our feet.
  // Retired threads have empty CDGs, which never gain edges here.
  std::vector<GuessId> own_to_abort;
  for (auto it = live_begin(); it != threads_.end(); ++it) {
    const std::uint32_t idx = it->first;
    ThreadCtx& t = it->second;
    ++work_.bookkeeping_steps;
    // Once an edge into `subject` is added, the node is there for the
    // remaining guard members.
    bool has_subject = t.cdg.has_node(subject, scrubs_);
    for (const auto& h : guard) {
      if (!has_subject && !t.cdg.has_node(h, scrubs_)) continue;
      if (t.cdg.has_edge(h, subject, scrubs_)) continue;
      std::vector<GuessId> cycle = t.cdg.add_edge(h, subject, scrubs_);
      has_subject = true;
      note_edge_holder(h, idx);
      note_edge_holder(subject, idx);
      {
        obs::Event ev = make_event(obs::EventKind::kCdgEdgeAdded);
        ev.thread = idx;
        ev.guess = guess_ref(subject);
        ev.guess_from = guess_ref(h);
        recorder().record(std::move(ev));
      }
      if (!cycle.empty()) {
        obs::Event ev = make_event(obs::EventKind::kCdgCycleDetected);
        ev.thread = idx;
        ev.guess = guess_ref(subject);
        ev.guess_from = guess_ref(h);
        ev.a = cycle.size();
        recorder().record(std::move(ev));
      }
      for (const auto& c : cycle) {
        if (c.owner == id_ &&
            history_.status(c) == GuessStatus::kUnknown &&
            std::find(own_to_abort.begin(), own_to_abort.end(), c) ==
                own_to_abort.end()) {
          own_to_abort.push_back(c);
        }
      }
    }
  }
  for (const auto& c : own_to_abort) {
    ++stats_.aborts_time_fault;
    record_abort(c, obs::AbortReason::kTimeFault, "precedence-cycle");
    abort_own_guess(c, "precedence-cycle");
  }
}

// ---------------------------------------------------------------------------
// Post-change resolution: joins that can now commit, logs, completion
// ---------------------------------------------------------------------------

void SpeculativeProcess::after_guard_change() {
  advance_retired();
  // The lowest JoinWait thread that can move goes first, as a scan of
  // every JoinWait thread would find it: a thread can only become able to
  // move through a wake-up (its guard shrank, its right thread died, it
  // entered JoinWait), so the lowest woken thread that can move is it.
  while (!join_wakeups_.empty()) {
    const std::uint32_t idx = *join_wakeups_.begin();
    join_wakeups_.erase(join_wakeups_.begin());
    ++work_.bookkeeping_steps;
    if (join_waiting_.count(idx) == 0) continue;
    ThreadCtx& t = threads_.at(idx);
    if (t.join_guess_aborted) {
      if (threads_.count(t.join_right_index) == 0) reexecute_right(t);
    } else if (t.guard.empty()) {
      finalize_join_commit(t);
    }
  }
#ifndef NDEBUG
  verify_join_wakeups();
#endif
  flush_logs();
  gc_resolved_state();
  check_completion();
}

}  // namespace ocsp::spec
