#include "layers.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "csp/env.h"
#include "csp/program.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/recorder.h"
#include "sim/scheduler.h"
#include "speculation/cdg.h"
#include "speculation/guard_set.h"
#include "speculation/history.h"
#include "stats.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kRepeats = 5;
constexpr int kMinPairs = 5;
constexpr int kMaxPairs = 400;

/// Keeps `v` alive for the optimizer without touching it.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// Median over kRepeats of the mean ns per call of body(i), i < iters.
template <typename Fn>
double per_op_ns(int iters, Fn&& body) {
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < iters; ++i) body(i);
    samples.push_back(static_cast<double>(now_ns() - t0) / iters);
  }
  return median(samples);
}

class BenchMessage final : public net::Message {
 public:
  std::string kind() const override { return "BENCH"; }
};

std::vector<std::string> var_names(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "v";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return names;
}

csp::Env env_of(const std::vector<std::string>& names) {
  csp::Env env;
  for (std::size_t i = 0; i < names.size(); ++i) {
    env.set(names[i], csp::Value(static_cast<std::int64_t>(i)));
  }
  return env;
}

spec::GuessId guess(std::size_t owner, std::size_t index) {
  return spec::GuessId{static_cast<ProcessId>(owner), 0,
                       static_cast<std::uint32_t>(index)};
}

double push_pop_ns(std::size_t depth) {
  sim::Scheduler sched;
  util::Rng rng(7);
  for (std::size_t i = 0; i < depth; ++i) {
    sched.at(rng.uniform_int(1, 1'000'000), [] {});
  }
  return per_op_ns(200'000, [&](int) {
    sched.after(rng.uniform_int(1, 1'000'000), [] {});
    sched.step();
  });
}

double env_set_ns(std::size_t vars) {
  const std::vector<std::string> names = var_names(vars);
  csp::Env env = env_of(names);
  return per_op_ns(200'000, [&](int i) {
    env.set(names[static_cast<std::size_t>(i) % names.size()],
            csp::Value(static_cast<std::int64_t>(i)));
  });
}

double env_copy_ns(std::size_t vars) {
  const std::vector<std::string> names = var_names(vars);
  const csp::Env env = env_of(names);
  return per_op_ns(200'000, [&](int i) {
    csp::Env copy = env;
    copy.set(names[static_cast<std::size_t>(i) % names.size()],
             csp::Value(static_cast<std::int64_t>(-i)));
    keep(copy);
  });
}

double history_status_ns(std::size_t guesses, std::size_t owners) {
  spec::HistoryTable history;
  for (std::size_t g = 0; g < guesses; ++g) {
    history.peer(static_cast<ProcessId>(g % owners))
        .set_status(guess(g % owners, g / owners),
                    g % 7 == 0 ? spec::GuessStatus::kAborted
                               : spec::GuessStatus::kCommitted);
  }
  const std::size_t per_owner = std::max<std::size_t>(1, guesses / owners);
  return per_op_ns(200'000, [&](int i) {
    const auto u = static_cast<std::size_t>(i);
    const spec::GuessStatus s =
        history.status(guess(u % owners, (u / owners) % per_owner));
    keep(s);
  });
}

double cdg_edge_ns(std::size_t nodes) {
  std::vector<double> samples;
  for (int r = 0; r < kRepeats * 4; ++r) {
    spec::Cdg cdg;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i + 1 < nodes; ++i) {
      const auto cycle = cdg.add_edge(guess(i, 1), guess(i + 1, 1));
      keep(cycle);
    }
    samples.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(nodes - 1));
  }
  return median(samples);
}

double guard_merge_ns(std::size_t owners) {
  spec::GuardSet a;
  spec::GuardSet b;
  for (std::size_t i = 0; i < owners; ++i) {
    a.add(guess(i, 5));
    b.add(guess(i, 5 + i % 3));
  }
  return per_op_ns(200'000, [&](int) {
    spec::GuardSet c = a;
    c.merge(b);
    keep(c);
  });
}

double send_deliver_ns() {
  sim::Scheduler sched;
  net::Network network(sched, util::Rng(11));
  std::uint64_t delivered = 0;
  network.register_endpoint(0, [&](const net::Envelope&) { ++delivered; });
  network.register_endpoint(1, [&](const net::Envelope&) { ++delivered; });
  const net::MessagePtr msg = std::make_shared<BenchMessage>();
  const double ns = per_op_ns(100'000, [&](int) {
    network.send(0, 1, msg);
    sched.step();
  });
  keep(delivered);
  return ns;
}

double frame_ack_ns() {
  sim::Scheduler sched;
  net::Network network(sched, util::Rng(13));
  net::ReliableConfig config;
  config.enabled = true;
  net::ReliableTransport transport(network, sched, config);
  std::uint64_t delivered = 0;
  transport.register_endpoint(0, [&](const net::Envelope&) { ++delivered; });
  transport.register_endpoint(1, [&](const net::Envelope&) { ++delivered; });
  const net::MessagePtr msg = std::make_shared<BenchMessage>();
  const double ns = per_op_ns(50'000, [&](int) {
    transport.send(0, 1, msg);
    sched.run();  // frame, ack, and the retransmit timer
  });
  keep(delivered);
  return ns;
}

double record_ns() {
  obs::RunRecorder recorder;
  obs::Event ev;
  ev.kind = obs::EventKind::kMsgSent;
  ev.process = 0;
  ev.peer = 1;
  return per_op_ns(200'000, [&](int i) {
    if ((i & 4095) == 0) recorder.clear();
    ev.when = i;
    recorder.record(ev);
  });
}

double empty_window_us() {
  std::vector<double> samples;
  for (int r = 0; r < kRepeats * 4; ++r) {
    exec::ParallelOptions options;
    options.workers = 2;
    options.default_link.latency = net::fixed_latency(sim::microseconds(500));
    exec::ParallelRuntime rt(options);
    rt.add_process("A", csp::nop());
    rt.add_process("B", csp::nop());
    const std::int64_t t0 = now_ns();
    rt.run();
    const double windows =
        static_cast<double>(std::max<std::size_t>(1, rt.windows().size()));
    samples.push_back(static_cast<double>(now_ns() - t0) / 1e3 / windows);
  }
  return median(samples);
}

/// Runs variant(0) and variant(1) alternately for about `budget_ns`
/// (at least kMinPairs pairs); returns the median sample of each.
template <typename Fn>
std::pair<double, double> interleave(std::int64_t budget_ns, Fn&& variant) {
  std::vector<double> a;
  std::vector<double> b;
  const std::int64_t deadline = now_ns() + budget_ns;
  for (int pair = 0; pair < kMaxPairs; ++pair) {
    if (pair >= kMinPairs && now_ns() >= deadline) break;
    // Alternate which variant goes first so neither always runs warm.
    if (pair % 2 == 0) {
      a.push_back(variant(0));
      b.push_back(variant(1));
    } else {
      b.push_back(variant(1));
      a.push_back(variant(0));
    }
  }
  return {median(a), median(b)};
}

}  // namespace

Micro run_micro(const LayerSizes& sizes, Spans* spans) {
  Micro m;
  const std::size_t owners = std::max<std::size_t>(1, sizes.processes);
  {
    Scope s(spans, "sim.push_pop");
    m.push_pop_ns = push_pop_ns(std::max<std::size_t>(1, sizes.queue_depth));
  }
  {
    Scope s(spans, "csp.env_set");
    m.env_set_ns = env_set_ns(std::max<std::size_t>(1, sizes.env_vars));
  }
  {
    Scope s(spans, "csp.env_copy");
    m.env_copy_ns = env_copy_ns(std::max<std::size_t>(1, sizes.env_vars));
  }
  {
    Scope s(spans, "speculation.history_status");
    m.history_status_ns =
        history_status_ns(std::max<std::size_t>(1, sizes.guesses), owners);
  }
  {
    Scope s(spans, "speculation.cdg_edge");
    m.cdg_edge_ns = cdg_edge_ns(std::clamp<std::size_t>(sizes.guesses, 2, 1024));
  }
  {
    Scope s(spans, "speculation.guard_merge");
    m.guard_merge_ns = guard_merge_ns(owners);
  }
  {
    Scope s(spans, "net.send_deliver");
    m.send_deliver_ns = send_deliver_ns();
  }
  {
    Scope s(spans, "net.frame_ack");
    m.frame_ack_ns = frame_ack_ns();
  }
  {
    Scope s(spans, "obs.record");
    m.record_ns = record_ns();
  }
  {
    Scope s(spans, "exec.empty_window");
    m.empty_window_us = empty_window_us();
  }
  return m;
}

Ratios run_ratios(const Workload& wl, std::int64_t budget_ns, Spans* spans) {
  Ratios r;
  {
    Scope s(spans, "probe.stream_growth");
    const auto [full, quarter] = interleave(budget_ns, [&](int v) {
      Prepared p = wl.prepare(0, nullptr, v == 0 ? 1 : 4);
      const Outcome o = wl.run(p, nullptr);
      const double events = static_cast<double>(std::max<std::uint64_t>(
          1, o.result.metrics.counter_or("sim_events_fired")));
      return static_cast<double>(o.run_ns) / events;
    });
    r.stream_growth = quarter > 0 ? full / quarter : 0.0;
  }
  {
    Scope s(spans, "probe.recorder_overhead");
    const auto [on, off] = interleave(budget_ns, [&](int v) {
      Prepared p = wl.prepare(0, nullptr);
      if (v == 1) {
        if (p.seq) {
          p.seq->recorder().set_enabled(false);
        } else {
          for (int shard = 0; shard < p.par->workers(); ++shard) {
            p.par->shard_recorder(shard)->set_enabled(false);
          }
        }
      }
      return static_cast<double>(wl.run(p, nullptr).run_ns);
    });
    r.recorder_overhead_pct = off > 0 ? (on / off - 1.0) * 100.0 : 0.0;
  }
  {
    Scope s(spans, "probe.parallel_speedup");
    const baseline::Scenario scenario = wl.prepare(0, nullptr).scenario;
    const auto [one, two] = interleave(budget_ns, [&](int v) {
      return static_cast<double>(
          exec::run_scenario_parallel(scenario, v == 0 ? 1 : 2).wall_ns);
    });
    r.parallel_speedup = two > 0 ? one / two : 0.0;
  }
  return r;
}

}  // namespace perfbench
