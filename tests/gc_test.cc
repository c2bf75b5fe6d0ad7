// State garbage collection: a long-running server's retained speculative
// state (checkpoints, replay metadata, input log, scrub log) must be
// bounded by the window of in-doubt guesses, not by the length of the run.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/workloads.h"
#include "speculation/runtime.h"

namespace ocsp {
namespace {

core::PutLineParams long_run(int lines,
                             spec::RollbackStrategy strategy) {
  core::PutLineParams p;
  p.lines = lines;
  p.net.latency = sim::microseconds(200);
  p.spec.rollback = strategy;
  return p;
}

TEST(Gc, ServerCheckpointsBoundedUnderCheckpointStrategy) {
  // Without GC the server would retain one checkpoint per tagged request.
  auto small = baseline::make_runtime(
      core::putline_scenario(
          long_run(16, spec::RollbackStrategy::kCheckpointEveryInterval)),
      true);
  small->run(sim::seconds(60));
  auto large = baseline::make_runtime(
      core::putline_scenario(
          long_run(128, spec::RollbackStrategy::kCheckpointEveryInterval)),
      true);
  large->run(sim::seconds(60));
  ASSERT_TRUE(large->process(0).completed());
  const auto small_cp = small->process(small->find("Y")).checkpoint_count();
  const auto large_cp = large->process(large->find("Y")).checkpoint_count();
  // Retained state does not grow with run length (8x the traffic).
  EXPECT_LE(large_cp, small_cp + 2) << "small=" << small_cp
                                    << " large=" << large_cp;
  EXPECT_GT(large->process(large->find("Y")).stats().checkpoints_pruned, 0u);
}

TEST(Gc, InputLogBoundedUnderReplayStrategy) {
  auto params = long_run(128, spec::RollbackStrategy::kReplayFromLog);
  params.spec.replay_checkpoint_every = 8;
  auto rt = baseline::make_runtime(core::putline_scenario(params), true);
  rt->run(sim::seconds(60));
  ASSERT_TRUE(rt->process(0).completed());
  const auto& server = rt->process(rt->find("Y"));
  // All guesses resolved: at most one checkpoint period of log remains.
  EXPECT_LT(server.input_log_size(), 20u);
  EXPECT_GT(server.stats().log_entries_pruned, 64u);
}

TEST(Gc, PruningNeverBreaksRollback) {
  // Mix GC pressure with faults: rollbacks must still find their state.
  for (auto strategy : {spec::RollbackStrategy::kCheckpointEveryInterval,
                        spec::RollbackStrategy::kReplayFromLog}) {
    core::PutLineParams p = long_run(64, strategy);
    p.fail_probability = 0.05;
    auto scenario = core::putline_scenario(p);
    auto pess = baseline::run_scenario(scenario, false, sim::seconds(60));
    auto opt = baseline::run_scenario(scenario, true, sim::seconds(60));
    ASSERT_TRUE(opt.all_completed) << opt.stats.to_string();
    std::string why;
    EXPECT_TRUE(trace::compare_traces(pess.trace, opt.trace, &why)) << why;
  }
}

TEST(Gc, ClientStateAlsoPruned) {
  auto rt = baseline::make_runtime(
      core::putline_scenario(
          long_run(128, spec::RollbackStrategy::kCheckpointEveryInterval)),
      true);
  rt->run(sim::seconds(60));
  ASSERT_TRUE(rt->process(0).completed());
  // The client created 128 speculative threads; once everything committed,
  // the dead threads' checkpoints are pruned and only the live tail stays.
  EXPECT_LT(rt->process(0).checkpoint_count(), 8u);
  EXPECT_GT(rt->process(0).stats().checkpoints_pruned, 100u);
}

/// Peak retained state of any process over a run, sampled every 100 us.
struct Peaks {
  std::size_t live_threads = 0;
  std::size_t checkpoints = 0;
  std::size_t input_log = 0;
  std::size_t pending = 0;
  std::size_t scrub_log = 0;
};

Peaks run_sampled(spec::Runtime& rt) {
  Peaks peaks;
  for (sim::Time t = sim::microseconds(100); !rt.process(0).completed();
       t += sim::microseconds(100)) {
    rt.run(t);
    for (ProcessId p = 0; p < rt.process_count(); ++p) {
      const auto& proc = rt.process(p);
      peaks.live_threads = std::max(peaks.live_threads,
                                    proc.live_thread_count());
      peaks.checkpoints = std::max(peaks.checkpoints, proc.checkpoint_count());
      peaks.input_log = std::max(peaks.input_log, proc.input_log_size());
      peaks.pending = std::max(peaks.pending, proc.pending_message_count());
      peaks.scrub_log = std::max(peaks.scrub_log, proc.scrub_log_size());
    }
  }
  rt.run();
  return peaks;
}

TEST(Gc, LongRunStateStaysBounded) {
  // A 10^4-line speculative stream whose client issues calls no faster
  // than the server answers them: the guesses in doubt are bounded by the
  // round trip, so every kind of retained state must be bounded too — the
  // same peak as a 10x shorter run, not ten times it.
  auto params = [](int lines) {
    core::PutLineParams p =
        long_run(lines, spec::RollbackStrategy::kCheckpointEveryInterval);
    p.client_compute = sim::microseconds(20);
    return p;
  };
  auto short_rt =
      baseline::make_runtime(core::putline_scenario(params(1000)), true);
  const Peaks short_peaks = run_sampled(*short_rt);
  ASSERT_TRUE(short_rt->process(0).completed());

  const auto scenario = core::putline_scenario(params(10000));
  auto long_rt = baseline::make_runtime(scenario, true);
  const Peaks long_peaks = run_sampled(*long_rt);
  ASSERT_TRUE(long_rt->process(0).completed());

  constexpr std::size_t kSlack = 4;
  EXPECT_LE(long_peaks.live_threads, short_peaks.live_threads + kSlack);
  EXPECT_LE(long_peaks.checkpoints, short_peaks.checkpoints + kSlack);
  EXPECT_LE(long_peaks.input_log, short_peaks.input_log + kSlack);
  EXPECT_LE(long_peaks.pending, short_peaks.pending + kSlack);
  // The scrub log is pruned once it has doubled (plus a slack), so its
  // peak stays within twice the shorter run's; unpruned, it would grow
  // tenfold with the run.
  EXPECT_LE(long_peaks.scrub_log, 2 * short_peaks.scrub_log + kSlack)
      << "short=" << short_peaks.scrub_log << " long=" << long_peaks.scrub_log;

  const auto pess = baseline::run_scenario(scenario, false);
  std::string why;
  EXPECT_TRUE(trace::compare_traces(pess.trace, long_rt->committed_trace(),
                                    &why))
      << why;
}

}  // namespace
}  // namespace ocsp
