// Message arrival and receive processing (sections 4.2.3 and 4.2.4).
//
// Arriving data messages sit in a pending queue until a thread can accept
// them.  The queue is re-checked against the orphan test whenever the
// history changes in a way that can turn a message into an orphan (an abort
// lands), delivery enforces the future-thread rule and picks the waiting
// thread that acquires the fewest new dependencies, and the lowest-position
// deliverable message always goes first.  Accepting a message that
// introduces new dependencies checkpoints the thread first and starts a
// new interval.
#include "speculation/process.h"
#include "speculation/runtime.h"
#include "util/check.h"
#include "util/logging.h"

namespace ocsp::spec {

void SpeculativeProcess::on_message(const net::Envelope& env) {
  if (crashed_) {
    // Down.  Framed data never reaches this point (the transport parks it);
    // whatever does — control traffic, unframed data — is genuinely lost,
    // exactly like a dead machine's NIC.  Control liveness rests on the
    // blind re-broadcast (SpecConfig::control_retry).
    ++stats_.crash_messages_dropped;
    return;
  }
  if (auto ctl = std::dynamic_pointer_cast<const ControlMessage>(env.payload)) {
    {
      obs::Event ev = make_event(obs::EventKind::kControlReceived);
      ev.peer = env.src;
      ev.guess = guess_ref(ctl->subject);
      ev.control = obs_control(ctl->control);
      ev.msg_id = env.id;
      recorder().record(std::move(ev));
    }
    switch (ctl->control) {
      case ControlKind::kCommit:
        on_commit_msg(ctl->subject);
        break;
      case ControlKind::kAbort:
        on_abort_msg(ctl->subject);
        break;
      case ControlKind::kPrecedence:
        on_precedence_msg(ctl->subject, ctl->guard);
        break;
    }
    // Targeted control plane (4.2.5): the guess's owner only knows its own
    // direct dependents; anyone who propagated the guess onward (recorded
    // at data-send time) must forward the resolution along the same edges.
    if (config_.control == ControlPlane::kTargeted &&
        ctl->control != ControlKind::kPrecedence) {
      forward_control(ctl->control, ctl->subject, env.src);
    }
    after_guard_change();
    return;
  }
  queue_pending(env, /*front=*/false);
  process_arrivals();
}

void SpeculativeProcess::forward_control(ControlKind kind,
                                         const GuessId& subject,
                                         ProcessId from) {
  const auto key = std::pair(subject, static_cast<int>(kind));
  if (!control_forwarded_.insert(key).second) return;  // already forwarded
  auto it = spread_.find(subject);
  if (it == spread_.end()) return;
  auto msg = std::make_shared<ControlMessage>();
  msg->control = kind;
  msg->subject = subject;
  std::uint64_t fanout = 0;
  for (ProcessId dst : it->second) {
    if (dst == id_ || dst == from || dst == subject.owner) continue;
    ++stats_.control_sent;
    ++fanout;
    runtime_.net_send(id_, dst, msg);
  }
  if (fanout > 0) {
    obs::Event ev = make_event(obs::EventKind::kControlSent);
    ev.guess = guess_ref(subject);
    ev.control = obs_control(kind);
    ev.a = fanout;
    ev.detail = "forward";
    recorder().record(std::move(ev));
    obs::control_fanout_hist(live_metrics_).add(static_cast<double>(fanout));
  }
}

void SpeculativeProcess::queue_pending(const net::Envelope& env, bool front) {
  const std::int64_t key = front ? --pending_front_ : pending_back_++;
  pending_.emplace(key, env);
  if (std::static_pointer_cast<const DataMessage>(env.payload)->data_kind ==
      DataKind::kReturn) {
    pending_returns_.insert(key);
  }
  pending_unchecked_.push_back(key);
}

void SpeculativeProcess::erase_pending(
    std::map<std::int64_t, net::Envelope>::iterator it) {
  pending_returns_.erase(it->first);
  pending_.erase(it);
}

bool SpeculativeProcess::orphan(const net::Envelope& env) const {
  const auto msg = std::static_pointer_cast<const DataMessage>(env.payload);
  return history_.any_aborted(msg->guard);
}

bool SpeculativeProcess::deliverable(const net::Envelope& env) const {
  const auto msg = std::static_pointer_cast<const DataMessage>(env.payload);
  if (msg->data_kind == DataKind::kReturn) {
    auto call_it = outstanding_calls_.find(msg->reqid);
    if (call_it == outstanding_calls_.end()) return true;  // stale: dropped
    auto th = threads_.find(call_it->second);
    OCSP_CHECK_MSG(th != threads_.end(), "outstanding call without thread");
    return th->second.phase == ThreadCtx::Phase::kAwaitReply &&
           th->second.outstanding_reqid == msg->reqid;
  }
  // A request or send needs a thread blocked in Receive that does not
  // logically precede one of our own guesses the message depends on.
  if (awaiting_message_.empty()) return false;
  const GuessId own_in_tag = msg->guard.for_owner(id_);
  return !own_in_tag.valid() || own_in_tag.incarnation != incarnation_ ||
         *awaiting_message_.rbegin() >= own_in_tag.index;
}

void SpeculativeProcess::process_arrivals() {
  // Delivery can trigger aborts and rollbacks that requeue messages and
  // call back into this function; the guard makes the nested call a no-op
  // (the outer loop picks the requeued messages up).
  if (in_process_arrivals_) return;
  in_process_arrivals_ = true;
  for (;;) {
    // Orphan test (4.2.3): discard messages from aborted computations.  A
    // message already checked stays clean until the history moves.
    auto discard_if_orphan = [&](std::map<std::int64_t,
                                          net::Envelope>::iterator it) {
      ++work_.bookkeeping_steps;
      if (!orphan(it->second)) return;
      ++stats_.orphans_discarded;
      OCSP_DLOG << name_ << ": orphan discarded "
                << std::static_pointer_cast<const DataMessage>(
                       it->second.payload)
                       ->describe();
      erase_pending(it);
    };
    if (orphan_checked_epoch_ != history_epoch_) {
      orphan_checked_epoch_ = history_epoch_;
      pending_unchecked_.clear();
      for (auto it = pending_.begin(); it != pending_.end();) {
        auto next = std::next(it);
        discard_if_orphan(it);
        it = next;
      }
    } else if (!pending_unchecked_.empty()) {
      std::vector<std::int64_t> keys;
      keys.swap(pending_unchecked_);
      for (const std::int64_t key : keys) {
        if (auto it = pending_.find(key); it != pending_.end()) {
          discard_if_orphan(it);
        }
      }
    }

    // The lowest-position deliverable message goes first.  Returns and
    // requests are found separately: a request can only go to a thread
    // blocked in Receive, so without one none is examined.
    auto pick = pending_.end();
    for (const std::int64_t key : pending_returns_) {
      ++work_.bookkeeping_steps;
      auto it = pending_.find(key);
      if (deliverable(it->second)) {
        pick = it;
        break;
      }
      ++work_.pending_rescans;
    }
    if (!awaiting_message_.empty()) {
      for (auto it = pending_.begin();
           it != pending_.end() && (pick == pending_.end() ||
                                    it->first < pick->first);
           ++it) {
        if (pending_returns_.count(it->first) > 0) continue;
        ++work_.bookkeeping_steps;
        if (deliverable(it->second)) {
          pick = it;
          break;
        }
        ++work_.pending_rescans;
      }
    }
    if (pick == pending_.end()) break;
    const net::Envelope env = pick->second;  // copy: delivery mutates
    erase_pending(pick);
    const bool consumed = try_deliver(env);
    OCSP_CHECK_MSG(consumed, "deliverable message was not consumed");
  }
  in_process_arrivals_ = false;
#ifndef NDEBUG
  verify_arrivals();
#endif
}

void SpeculativeProcess::verify_arrivals() const {
  // After a scan nothing pending is an orphan or deliverable (the state a
  // rescan of the whole queue would reach), and the return index matches.
  std::size_t returns = 0;
  for (const auto& [key, env] : pending_) {
    OCSP_CHECK_MSG(!orphan(env), "orphan left pending");
    OCSP_CHECK_MSG(!deliverable(env), "deliverable message left pending");
    if (std::static_pointer_cast<const DataMessage>(env.payload)->data_kind ==
        DataKind::kReturn) {
      ++returns;
      OCSP_CHECK(pending_returns_.count(key) == 1);
    }
  }
  OCSP_CHECK(returns == pending_returns_.size());
}

bool SpeculativeProcess::try_deliver(const net::Envelope& env) {
  const auto msg = std::static_pointer_cast<const DataMessage>(env.payload);

  // Which of OUR guesses does this message depend on?  A tag mentioning our
  // own future guess means the sender interacted with a speculative thread
  // of ours.
  const GuessId own_in_tag = msg->guard.for_owner(id_);

  if (msg->data_kind == DataKind::kReturn) {
    auto call_it = outstanding_calls_.find(msg->reqid);
    if (call_it == outstanding_calls_.end()) {
      // The caller thread was rolled back; its re-issued call has a fresh
      // reqid and the server will answer that one.  This return is stale.
      ++stats_.orphans_discarded;
      return true;  // consume (drop)
    }
    const std::uint32_t tidx = call_it->second;
    auto th = threads_.find(tidx);
    OCSP_CHECK_MSG(th != threads_.end(), "outstanding call without thread");
    ThreadCtx& t = th->second;
    if (t.phase != ThreadCtx::Phase::kAwaitReply ||
        t.outstanding_reqid != msg->reqid) {
      return false;  // should not happen, but stay safe: keep queued
    }
    // Future-thread detection (4.2.3): a return that depends on one of our
    // later speculative threads would make that thread causally precede
    // itself.  Abort the future guess; the return then becomes an orphan
    // (the server will roll back and re-reply untainted).
    if (own_in_tag.valid() && own_in_tag.incarnation == incarnation_ &&
        own_in_tag.index > tidx &&
        history_.status(own_in_tag) == GuessStatus::kUnknown) {
      ++stats_.aborts_time_fault;
      record_abort(own_in_tag, obs::AbortReason::kTimeFault,
                   "future-thread-return");
      abort_own_guess(own_in_tag, "future-thread-return");
      after_guard_change();
      ++stats_.orphans_discarded;
      return true;  // consume: it now depends on an aborted guess
    }
    accept_message(t, env);
    t.machine.resume_with_value(msg->result);
    set_phase(t, ThreadCtx::Phase::kRunning);
    t.outstanding_reqid = -1;
    outstanding_calls_.erase(msg->reqid);
    trace::ObservableEvent ev;
    ev.kind = trace::ObservableEvent::Kind::kCallReturn;
    ev.process = id_;
    ev.peer = env.src;
    ev.data = msg->result;
    record_event(t, std::move(ev));
    schedule_step(t.index);
    return true;
  }

  // Requests and one-way sends go to a thread blocked in Receive.  Eligible
  // threads must not logically precede a guess the message depends on.
  ThreadCtx* best = nullptr;
  std::size_t best_new_deps = 0;
  for (const std::uint32_t idx : awaiting_message_) {
    ++work_.bookkeeping_steps;
    ThreadCtx& t = threads_.at(idx);
    if (own_in_tag.valid() && own_in_tag.incarnation == incarnation_ &&
        idx < own_in_tag.index) {
      continue;  // would make our own guess depend on itself
    }
    const std::size_t new_deps = [&] {
      std::size_t n = 0;
      for (const auto& g : msg->guard.minus(t.guard)) {
        if (history_.status(g) == GuessStatus::kUnknown) ++n;
      }
      return n;
    }();
    // Minimize new dependencies; tie-break on the earliest thread.
    if (best == nullptr || new_deps < best_new_deps) {
      best = &t;
      best_new_deps = new_deps;
    }
  }
  if (best == nullptr) return false;

  ThreadCtx& t = *best;
  accept_message(t, env);
  t.machine.deliver(msg->op, msg->args, static_cast<std::int64_t>(env.src),
                    msg->reqid,
                    /*is_call=*/msg->data_kind == DataKind::kCall);
  set_phase(t, ThreadCtx::Phase::kRunning);
  trace::ObservableEvent ev;
  ev.kind = trace::ObservableEvent::Kind::kReceive;
  ev.process = id_;
  ev.peer = env.src;
  ev.op = msg->op;
  ev.data = csp::Value(msg->args);
  record_event(t, std::move(ev));
  schedule_step(t.index);
  return true;
}

void SpeculativeProcess::accept_message(ThreadCtx& t,
                                        const net::Envelope& env) {
  const auto msg = std::static_pointer_cast<const DataMessage>(env.payload);

  // New dependencies = tag members not covered locally and not already
  // resolved (a committed guess is no dependency at all).
  std::vector<GuessId> newguards;
  for (const auto& g : msg->guard.minus(t.guard)) {
    if (history_.status(g) == GuessStatus::kUnknown) newguards.push_back(g);
  }

  // The pre-acceptance state index is the rollback point if any of the new
  // guesses aborts (4.1.3).  Intervals advance on *every* acceptance so
  // state indexes identify acceptances uniquely (which the replay strategy
  // depends on); checkpoints/metadata are only taken for the acceptances
  // that actually introduce dependencies.
  OCSP_CHECK_MSG(!replaying_, "accept_message during replay");
  const StateIndex rollback_point = current_index(t);
  if (!newguards.empty()) {
    if (config_.rollback == RollbackStrategy::kCheckpointEveryInterval ||
        ++t.accepts_since_checkpoint >=
            static_cast<std::uint32_t>(
                std::max(1, config_.replay_checkpoint_every))) {
      take_checkpoint(t);
      t.accepts_since_checkpoint = 0;
    } else {
      replay_meta_[rollback_point] =
          ReplayMeta{t.sent_count, t.flushed_count, t.outstanding_reqid};
      ledger_set(rollback_point, &LedgerEntry::meta, true);
    }
  }
  ++t.interval;
  for (const auto& g : newguards) {
    guard_add(t, g);
    t.cdg.add_node(g, scrubs_);
    add_dependency(t, g, rollback_point);
    set_guess_status(g, GuessStatus::kUnknown);
  }
  if (!newguards.empty()) {
    obs::speculation_depth_hist(live_metrics_)
        .add(static_cast<double>(t.guard.size()));
  }

  log_input(current_index(t), rollback_point, env);
  timeline().record({trace::TimelineEntry::Kind::kMsgDeliver,
                     env.delivered_at, id_, env.src, msg->describe()});
}

}  // namespace ocsp::spec
