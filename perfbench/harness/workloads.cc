#include "workloads.h"

#include <algorithm>
#include <utility>

#include "analysis/commute.h"
#include "core/workloads.h"
#include "fault/plan.h"
#include "transform/reclassify.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kStreamLines = 128;
constexpr int kFanoutPairs = 32;
constexpr int kFanoutCalls = 16;
constexpr int kChaosLines = 32;
/// Fault plans per chaos cycle: a hundred of each of make_chaos_plan's six
/// categories (category = plan seed % 6), so a cycle's mean cost barely
/// depends on the seed.
constexpr int kChaosPlans = 600;
constexpr int kRegistryClients = 8;
constexpr int kRegistryIterations = 8;

/// Seed-driven link jitter: it makes virtual completion depend on the seed
/// (a few percent) without reordering FIFO links.
constexpr sim::Time kJitter = sim::microseconds(50);

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + salt;
  return util::splitmix64(state);
}

int scaled(int n, int divisor) { return std::max(1, n / divisor); }

core::PutLineParams stream_params(std::uint64_t seed, int divisor) {
  core::PutLineParams p;
  p.lines = scaled(kStreamLines, divisor);
  p.net.jitter = kJitter;
  p.seed = seed;
  return p;
}

core::ComputeFanoutParams fanout_params(std::uint64_t seed, int divisor) {
  core::ComputeFanoutParams p;
  p.pairs = kFanoutPairs;
  p.calls = scaled(kFanoutCalls, divisor);
  p.net.jitter = kJitter;
  p.seed = seed;
  return p;
}

/// The chaos sweep's PutLine stream (bench_fault_tolerance's parameters at
/// kChaosLines lines): control re-broadcast on, timeouts well above the
/// injected outages.
core::PutLineParams chaos_params(std::uint64_t seed, int divisor) {
  core::PutLineParams p;
  p.lines = scaled(kChaosLines, divisor);
  p.service_time = sim::microseconds(200);
  p.client_compute = sim::microseconds(100);
  p.net.latency = sim::microseconds(500);
  p.net.jitter = kJitter;
  p.seed = seed;
  p.spec.control_retry = true;
  p.spec.control_retry_interval = sim::milliseconds(1);
  p.spec.control_retry_limit = 30;
  p.spec.join_wait_timeout = sim::milliseconds(200);
  return p;
}

/// bench_fault_tolerance's chaos spec with loss and corruption capped near
/// 10%: retransmission backoff then stretches a plan's completion by a few
/// times, not by two orders of magnitude.
fault::ChaosSpec chaos_spec() {
  fault::ChaosSpec s;
  s.max_drop = 0.12;
  s.max_corrupt = 0.1;
  s.horizon = sim::milliseconds(20);
  s.partition_min_len = sim::milliseconds(1);
  s.partition_max_len = sim::milliseconds(5);
  s.crash_min_downtime = sim::milliseconds(1);
  s.crash_max_downtime = sim::milliseconds(4);
  return s;
}

core::CommuteRegistryParams registry_params(std::uint64_t seed,
                                            int divisor) {
  core::CommuteRegistryParams p;
  p.clients = kRegistryClients;
  p.iterations = scaled(kRegistryIterations, divisor);
  p.net.latency = sim::microseconds(300);
  p.net.jitter = kJitter;
  p.seed = seed;
  // The harness runs reclassify itself so the analysis and the transform
  // get spans of their own; the result is what commute_registry_scenario
  // itself would produce.
  p.reclassify = false;
  return p;
}

exec::ParallelOptions parallel_options(const baseline::Scenario& s,
                                       int workers) {
  exec::ParallelOptions o;
  o.seed = s.options.seed;
  o.workers = workers;
  o.default_link = s.options.default_link;
  o.spec = s.options.spec;
  o.spec.speculation_enabled = true;
  o.fault_plan = s.options.fault_plan;
  o.reliable = s.options.reliable;
  return o;
}

/// The part of the run call's result collection both executors share.
template <typename Rt>
void collect(Rt& rt, Outcome& o) {
  o.result.last_completion = rt.last_completion_time();
  o.result.all_completed = rt.all_clients_completed();
  o.result.stats = rt.total_stats();
  o.result.trace = rt.committed_trace();
  o.result.metrics = rt.metrics();
  o.result.process_names = rt.process_names();
}

/// Untimed checks after a run: each client's completion, by name, and the
/// environment sizes the layer microbenchmarks are sized from.
template <typename Rt>
void inspect(const Rt& rt, const std::vector<std::string>& clients,
             Outcome& o) {
  for (const std::string& name : clients) {
    if (!rt.process(rt.find(name)).completed()) o.incomplete.push_back(name);
  }
  for (ProcessId id : rt.all_process_ids()) {
    const spec::SpeculativeProcess& p = rt.process(id);
    for (std::uint32_t t = 0;; ++t) {
      const spec::ThreadCtx* ctx = p.thread(t);
      if (ctx == nullptr) break;
      o.max_env_vars = std::max(o.max_env_vars, ctx->machine.env().size());
    }
  }
}

/// Registry reply payloads replaced by their truthiness: the clients only
/// ever branch on them (or drop them), so this is exactly the observable
/// part of a kCallReturn from the registry.
trace::CommittedTrace project_registry_replies(const trace::CommittedTrace& t,
                                               ProcessId registry) {
  trace::CommittedTrace out;
  for (ProcessId p : t.processes()) {
    for (trace::ObservableEvent ev : t.for_process(p)) {
      if (ev.kind == trace::ObservableEvent::Kind::kCallReturn &&
          ev.peer == registry) {
        ev.data = csp::Value(ev.data.truthy());
      }
      out.append(std::move(ev));
    }
  }
  return out;
}

}  // namespace

std::unique_ptr<Workload> Workload::make(const std::string& name,
                                         std::uint64_t seed) {
  Kind kind;
  if (name == "long_stream") {
    kind = Kind::kLongStream;
  } else if (name == "sharded_fanout") {
    kind = Kind::kShardedFanout;
  } else if (name == "chaos_stream") {
    kind = Kind::kChaosStream;
  } else if (name == "contended_registry") {
    kind = Kind::kRegistry;
  } else {
    return nullptr;
  }
  return std::unique_ptr<Workload>(new Workload(kind, name, seed));
}

Workload::Workload(Kind kind, std::string name, std::uint64_t seed)
    : kind_(kind), name_(std::move(name)) {
  if (kind_ != Kind::kChaosStream) {
    inputs_.push_back({mix(seed, static_cast<std::uint64_t>(kind)), 0});
    return;
  }
  // A plan seed's residue mod 6 picks its category, so a cycle covers the
  // six categories equally.  Each plan gets its own network stream too.
  for (int i = 0; i < kChaosPlans; ++i) {
    const std::uint64_t round = mix(seed, 0xc4a05 + i / 6) % (1ull << 40);
    inputs_.push_back({mix(seed, 0x5eed + i),
                       round * 6 + static_cast<std::uint64_t>(i % 6)});
  }
}

int Workload::ops() const {
  switch (kind_) {
    case Kind::kLongStream: return kStreamLines;
    case Kind::kShardedFanout: return kFanoutPairs * kFanoutCalls;
    case Kind::kChaosStream: return kChaosLines;
    case Kind::kRegistry:
      // Add, Stamp, Stamp and a Note send per iteration.
      return kRegistryClients * kRegistryIterations * 4;
  }
  return 0;
}

std::vector<std::string> Workload::clients() const {
  std::vector<std::string> out;
  switch (kind_) {
    case Kind::kLongStream:
    case Kind::kChaosStream:
      out.push_back("X");
      break;
    case Kind::kShardedFanout:
      for (int i = 0; i < kFanoutPairs; ++i) {
        out.push_back(core::compute_fanout_client(i));
      }
      break;
    case Kind::kRegistry:
      for (int i = 0; i < kRegistryClients; ++i) {
        out.push_back(core::commute_registry_client(i));
      }
      break;
  }
  return out;
}

baseline::Scenario Workload::build(int input, Spans* spans,
                                   int divisor) const {
  const Input& in = inputs_[static_cast<std::size_t>(input)];
  switch (kind_) {
    case Kind::kLongStream: {
      Scope s(spans, "core.build_scenario");
      return core::putline_scenario(stream_params(in.net_seed, divisor));
    }
    case Kind::kShardedFanout: {
      Scope s(spans, "core.build_scenario");
      baseline::Scenario scenario =
          core::compute_fanout_scenario(fanout_params(in.net_seed, divisor));
      scenario.options.per_link_net = true;
      return scenario;
    }
    case Kind::kChaosStream: {
      fault::FaultPlan plan;
      {
        Scope s(spans, "fault.make_chaos_plan");
        plan = fault::make_chaos_plan(in.plan_seed, chaos_spec(), 2);
      }
      Scope s(spans, "core.build_scenario");
      baseline::Scenario scenario =
          core::putline_scenario(chaos_params(in.net_seed, divisor));
      scenario.options.fault_plan = std::move(plan);
      scenario.options.reliable.enabled = true;
      return scenario;
    }
    case Kind::kRegistry: {
      baseline::Scenario scenario;
      {
        Scope s(spans, "core.build_scenario");
        scenario = core::commute_registry_scenario(
            registry_params(in.net_seed, divisor));
      }
      // Same loop as commute_registry_scenario with reclassify on.
      for (auto& proc : scenario.processes) {
        if (proc.name == "R") continue;
        analysis::CommuteContext ctx;
        {
          Scope s(spans, "analysis.commute_context");
          ctx = core::scenario_commute_context(scenario, proc.name);
        }
        Scope s(spans, "transform.reclassify");
        proc.program = transform::reclassify(proc.program, {&ctx}).program;
      }
      return scenario;
    }
  }
  return {};
}

void Workload::compute_references() {
  oracle_.clear();
  pessimistic_ns_.clear();
  for (int i = 0; i < inputs(); ++i) {
    baseline::Scenario scenario = build(i, nullptr, 1);
    const baseline::RunResult pess = baseline::run_scenario(scenario, false);
    pessimistic_ns_.push_back(pess.last_completion);
    if (kind_ != Kind::kChaosStream) {
      oracle_.push_back(pess.trace);
      continue;
    }
    // Chaos: the oracle is the same input run fault-free.
    scenario.options.fault_plan = {};
    scenario.options.reliable.enabled = false;
    oracle_.push_back(baseline::run_scenario(scenario, false).trace);
  }
}

Prepared Workload::prepare(int input, Spans* spans, int divisor) const {
  Prepared p;
  p.scenario = build(input, spans, divisor);
  if (workers() == 0) {
    Scope s(spans, "baseline.make_runtime");
    p.seq = baseline::make_runtime(p.scenario, true);
  } else {
    Scope s(spans, "exec.construct");
    p.par = std::make_unique<exec::ParallelRuntime>(
        parallel_options(p.scenario, workers()));
    for (const auto& proc : p.scenario.processes) {
      p.par->add_process(proc.name, proc.program, proc.env);
    }
    for (const auto& link : p.scenario.links) {
      p.par->set_link(p.par->find(link.src), p.par->find(link.dst),
                      link.config);
    }
  }
  return p;
}

Outcome Workload::run(Prepared& p, Spans* spans) const {
  Outcome o;
  if (p.seq) {
    spec::Runtime& rt = *p.seq;
    std::int64_t t0 = now_ns();
    {
      Scope s(spans, "spec.run");
      o.result.finished_at = rt.run();
    }
    std::int64_t t1 = now_ns();
    {
      Scope s(spans, "baseline.collect");
      collect(rt, o);
      o.result.network = rt.network().stats();
      o.result.timeline_rollbacks =
          rt.timeline().count(trace::TimelineEntry::Kind::kRollback);
      o.result.recorder = rt.shared_recorder();
    }
    o.run_ns = t1 - t0;
    o.collect_ns = now_ns() - t1;
    inspect(rt, clients(), o);
  } else {
    exec::ParallelRuntime& rt = *p.par;
    std::int64_t t0 = now_ns();
    {
      Scope s(spans, "exec.run");
      o.result.finished_at = rt.run();
    }
    std::int64_t t1 = now_ns();
    {
      Scope s(spans, "baseline.collect");
      collect(rt, o);
      o.result.network = rt.network_stats();
      o.result.timeline_rollbacks = rt.timeline_rollbacks();
      o.result.recorder = rt.merged_recorder();
      o.windows = rt.windows();
    }
    o.run_ns = t1 - t0;
    o.collect_ns = now_ns() - t1;
    inspect(rt, clients(), o);
  }
  return o;
}

bool Workload::verify(int input, const Outcome& o, std::string* why) const {
  if (!o.incomplete.empty()) {
    *why = "client " + o.incomplete.front() + " did not complete";
    return false;
  }
  const trace::CommittedTrace& ref = oracle_[static_cast<std::size_t>(input)];
  if (kind_ != Kind::kRegistry) {
    return trace::compare_traces(ref, o.result.trace, why);
  }
  // Registry: per-client equality with reply data projected to truthiness;
  // the registry itself may legally see another interleaving.
  const ProcessId registry = static_cast<ProcessId>(kRegistryClients);
  const trace::CommittedTrace a = project_registry_replies(ref, registry);
  const trace::CommittedTrace b =
      project_registry_replies(o.result.trace, registry);
  for (int c = 0; c < kRegistryClients; ++c) {
    if (!trace::compare_process_trace(a, b, static_cast<ProcessId>(c), why)) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint64_t> Workload::signature(const Outcome& o) {
  const baseline::RunResult& r = o.result;
  const spec::SpecStats& s = r.stats;
  return {
      static_cast<std::uint64_t>(r.last_completion),
      r.metrics.counter_or("sim_events_fired"),
      s.forks,
      s.commits,
      s.total_aborts(),
      s.aborts_cascade,
      s.rollbacks,
      s.checkpoints,
      s.control_sent,
      r.network.messages_sent,
      r.network.bytes_sent,
      r.metrics.counter_or("retransmissions"),
      r.metrics.counter_or("duplicates_suppressed"),
      r.metrics.counter_or("faults_injected"),
      s.crashes,
      r.recorder ? r.recorder->events().size() : 0,
      o.windows.size(),
  };
}

}  // namespace perfbench
