// Cost of the speculation core's bookkeeping, measured by its deterministic
// work counters (SpeculativeProcess::work()), and the delivery order the
// one-pass arrival scan must keep.
//
// The counters count elements visited by the bookkeeping loops, so a test
// can bound cost per simulator event without a wall clock: a scan that
// walks state growing with the run shows up as steps per event growing
// with the run.
#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/scenario.h"
#include "core/workloads.h"
#include "csp/service.h"
#include "speculation/runtime.h"

namespace ocsp::spec {
namespace {

using csp::lit;
using csp::Value;

struct Cost {
  double steps_per_event = 0;
  double rescans_per_event = 0;
  std::size_t peak_live_threads = 0;
};

/// Run a putline stream to completion and total the work counters.  When
/// `sample` is positive the run advances in slices of that length and
/// records the client's peak live-thread count (the in-doubt window).
Cost putline_cost(const core::PutLineParams& params, bool speculation,
                  sim::Time sample = 0) {
  auto rt = baseline::make_runtime(core::putline_scenario(params),
                                   speculation);
  Cost cost;
  if (sample > 0) {
    for (sim::Time t = sample; !rt->process(0).completed(); t += sample) {
      rt->run(t);
      cost.peak_live_threads =
          std::max(cost.peak_live_threads, rt->process(0).live_thread_count());
    }
  }
  rt->run();
  EXPECT_TRUE(rt->process(0).completed());
  WorkCounters work;
  for (ProcessId p = 0; p < rt->process_count(); ++p) {
    work.merge(rt->process(p).work());
  }
  const double events = static_cast<double>(rt->scheduler().fired_count());
  cost.steps_per_event = static_cast<double>(work.bookkeeping_steps) / events;
  cost.rescans_per_event = static_cast<double>(work.pending_rescans) / events;
  return cost;
}

/// A stream whose client issues calls no faster than the server serves
/// them, so the number of guesses in doubt is set by the round trip, not
/// by the length of the stream.
core::PutLineParams steady_stream(int lines) {
  core::PutLineParams p;
  p.lines = lines;
  p.client_compute = sim::microseconds(20);
  p.service_time = sim::microseconds(10);
  p.net.latency = sim::microseconds(200);
  return p;
}

TEST(Bookkeeping, StepsPerEventIndependentOfRunLength) {
  for (const bool speculation : {true, false}) {
    const Cost short_run = putline_cost(steady_stream(64), speculation);
    const Cost long_run = putline_cost(steady_stream(1024), speculation);
    EXPECT_GT(short_run.steps_per_event, 0.0);
    EXPECT_LE(long_run.steps_per_event, 2.0 * short_run.steps_per_event)
        << "speculation=" << speculation
        << " steps/event at 64 lines: " << short_run.steps_per_event
        << ", at 1024 lines: " << long_run.steps_per_event;
    EXPECT_LE(long_run.rescans_per_event,
              2.0 * short_run.rescans_per_event + 0.01);
  }
}

TEST(Bookkeeping, StepsPerEventFollowTheInDoubtWindow) {
  // The default putline client calls twice as fast as the server answers,
  // so the number of guesses in doubt grows with the stream.  Each fork
  // copies its parent's dependencies and each commit scrubs every thread
  // that copied the guess, so cost per event follows that window —
  // linearly, never worse.
  core::PutLineParams short_params;
  short_params.lines = 32;
  core::PutLineParams long_params;
  long_params.lines = 128;
  const Cost short_run =
      putline_cost(short_params, true, sim::microseconds(50));
  const Cost long_run = putline_cost(long_params, true, sim::microseconds(50));
  ASSERT_GT(short_run.peak_live_threads, 0u);
  ASSERT_GT(long_run.peak_live_threads, 2 * short_run.peak_live_threads);
  const double short_per_guess =
      short_run.steps_per_event /
      static_cast<double>(short_run.peak_live_threads);
  const double long_per_guess =
      long_run.steps_per_event /
      static_cast<double>(long_run.peak_live_threads);
  EXPECT_LE(long_per_guess, 2.0 * short_per_guess)
      << "window " << short_run.peak_live_threads << " -> "
      << long_run.peak_live_threads << ", steps/event "
      << short_run.steps_per_event << " -> " << long_run.steps_per_event;
}

TEST(Bookkeeping, StepsPerEventIndependentOfWindow) {
  // The default putline client outruns its server, so the in-doubt window
  // grows with the stream (see the test above).  Forks and checkpoints
  // share their parent's dependency tables and commits scrub them lazily,
  // so cost per event stays flat anyway.
  core::PutLineParams short_params;
  short_params.lines = 64;
  core::PutLineParams long_params;
  long_params.lines = 1024;
  const Cost short_run = putline_cost(short_params, true);
  const Cost long_run = putline_cost(long_params, true);
  EXPECT_GT(short_run.steps_per_event, 0.0);
  EXPECT_LE(long_run.steps_per_event, 2.0 * short_run.steps_per_event)
      << "steps/event at 64 lines: " << short_run.steps_per_event
      << ", at 1024 lines: " << long_run.steps_per_event;
}

TEST(Bookkeeping, PendingMessagesKeepTheirOrder) {
  // M is blocked in a slow call while three notes arrive; the notes wait
  // (nothing is receiving) and the call's return, queued behind them, is
  // the lowest-position deliverable message, so it goes first.  The notes
  // are then received in arrival order.
  RuntimeOptions opts;
  opts.default_link.latency = net::fixed_latency(sim::microseconds(100));
  Runtime rt(opts);
  const ProcessId m = rt.add_process(
      "M", csp::seq({
               csp::call("S", "Slow", {lit(Value(0))}, "r"),
               csp::receive(),
               csp::receive(),
               csp::receive(),
           }));
  std::map<std::string, csp::NativeHandler> handlers;
  handlers["Slow"] = [](const csp::ValueList&, csp::Env&, util::Rng&) {
    return Value(7);
  };
  csp::ServiceConfig sc;
  sc.service_time = sim::microseconds(500);
  rt.add_process("S", csp::native_service(std::move(handlers), sc));
  for (const int i : {1, 2, 3}) {
    const std::string name = std::string("C") += std::to_string(i);
    rt.add_process(name,
                   csp::seq({
                       csp::compute(sim::microseconds(10 * i)),
                       csp::send("M", "Note", {lit(Value(i))}),
                   }));
  }

  // Notes arrive at 110-130 us, the return at about 700 us.
  rt.run(sim::microseconds(650));
  EXPECT_EQ(rt.process(m).pending_message_count(), 3u);
  rt.run();
  ASSERT_TRUE(rt.process(m).completed());
  EXPECT_EQ(rt.process(m).pending_message_count(), 0u);

  const auto& events = rt.process(m).committed_events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].kind, trace::ObservableEvent::Kind::kSend);
  EXPECT_EQ(events[1].kind, trace::ObservableEvent::Kind::kCallReturn);
  EXPECT_EQ(events[1].data, Value(7));
  for (int i = 1; i <= 3; ++i) {
    const auto& e = events[static_cast<std::size_t>(i) + 1];
    EXPECT_EQ(e.kind, trace::ObservableEvent::Kind::kReceive);
    EXPECT_EQ(e.op, "Note");
    EXPECT_EQ(e.data, Value(csp::ValueList{Value(i)}));
  }
  // Queued notes were never re-examined: nothing was receiving while they
  // waited, and each was deliverable the first time it was looked at.
  EXPECT_EQ(rt.process(m).work().pending_rescans, 0u);
}

}  // namespace
}  // namespace ocsp::spec
