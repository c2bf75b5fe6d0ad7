// ocsp_perfbench: wall-clock benchmark of the speculation runtime.
//
//   ocsp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--state-dir DIR] [--spans-out PATH]
//
// Runs benchmark instances of one workload back to back for S seconds and
// checks every one against its Theorem-1 oracle.  stdout carries a host
// fingerprint line and, last, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1 (which also writes its spans to
// PATH).  --state-dir keeps each input's run fingerprint, so a later run of
// the same binary and seed must reproduce it bit for bit.  perfbench/run.py
// builds this binary and passes both paths.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "obs/profile.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Untraced runs time at least this many instances, so p90 has at least
/// ten samples above it.
constexpr int kMinInstances = 110;
/// Instance loops stop here whatever --seconds says (exit within 180 s).
constexpr std::int64_t kHardCapNs = 140'000'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string state_dir;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--trace") {
      a.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (key == "--state-dir") {
      a.state_dir = value;
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && have_seed &&
         a.seconds > 0 && a.trace >= 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One verified benchmark instance.
struct Instance {
  int input = 0;
  bool traced = false;
  bool ok = false;
  std::int64_t setup_ns = 0;
  Outcome outcome;
  std::string why;  ///< failure reason
  /// Mean host time of the calibration passes just before and after.
  double calibration_ns = kCalibrationRefNs;

  /// Converts this instance's host times to the reference host's speed.
  double to_reference(std::int64_t ns) const {
    return static_cast<double>(ns) * kCalibrationRefNs / calibration_ns;
  }
};

class Bench {
 public:
  Bench(const Workload& wl, Spans* spans)
      : wl_(wl),
        spans_(spans),
        last_pass_ns_(calibration_pass(wl.workers())) {}

  /// Build, construct, run and verify one instance of `input`.  A wrong
  /// trace, a stalled client or a fingerprint that differs from an earlier
  /// instance of the same input all fail it.
  Instance run(int input, bool traced) {
    Spans* spans = traced ? spans_ : nullptr;
    if (spans) spans->set_instance(attempted_);
    Instance in = measure(input, spans);
    if (spans) spans->set_instance(-1);
    const std::int64_t pass_ns = calibration_pass(wl_.workers());
    in.calibration_ns = static_cast<double>(last_pass_ns_ + pass_ns) / 2;
    last_pass_ns_ = pass_ns;
    in.traced = traced;
    ++attempted_;
    if (!in.ok) {
      ++failed_;
      std::fprintf(stderr, "[perfbench] %s input %d FAILED: %s\n",
                   wl_.name().c_str(), input, in.why.c_str());
    }
    return in;
  }

  /// Whole cycles of inputs until `budget_ns` and `min_instances` are both
  /// met (or the hard cap); instance i is traced iff traced(i).
  template <typename Traced, typename Sink>
  void loop(std::int64_t budget_ns, int min_instances, std::int64_t started,
            Traced&& traced, Sink&& sink) {
    const std::int64_t t0 = now_ns();
    for (int i = 0;; ++i) {
      const int input = i % wl_.inputs();
      if (input == 0 && i > 0) {
        const std::int64_t now = now_ns();
        if ((now - t0 >= budget_ns && i >= min_instances) ||
            now - started >= kHardCapNs) {
          break;
        }
      }
      sink(run(input, traced(i)));
    }
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const std::map<int, std::vector<std::uint64_t>>& signatures() const {
    return signatures_;
  }

 private:
  /// The instance itself, inside its root span.
  Instance measure(int input, Spans* spans) {
    Scope whole(spans, "instance");
    Instance in;
    in.input = input;
    const std::int64_t t0 = now_ns();
    Prepared p = wl_.prepare(input, spans);
    in.setup_ns = now_ns() - t0;
    in.outcome = wl_.run(p, spans);
    {
      Scope s(spans, "trace.verify");
      in.ok = wl_.verify(input, in.outcome, &in.why);
    }
    const std::vector<std::uint64_t> sig = Workload::signature(in.outcome);
    auto [it, first] = signatures_.emplace(input, sig);
    if (!first && it->second != sig) {
      in.ok = false;
      in.why = "run fingerprint differs from an earlier instance of the input";
    }
    return in;
  }

  const Workload& wl_;
  Spans* spans_;
  std::int64_t last_pass_ns_ = 0;
  std::map<int, std::vector<std::uint64_t>> signatures_;
  int attempted_ = 0;
  int failed_ = 0;
};

/// The oracle must catch a planted wrong trace and a stalled client, and
/// both must count as failures; a genuine run must pass.
bool oracle_self_check(const Workload& wl) {
  Prepared p = wl.prepare(0, nullptr);
  const Outcome genuine = wl.run(p, nullptr);

  Outcome wrong = genuine;
  trace::CommittedTrace planted;
  const ProcessId victim = wrong.result.trace.processes().front();
  const std::size_t last = wrong.result.trace.for_process(victim).size() - 1;
  for (ProcessId pid : wrong.result.trace.processes()) {
    const auto& events = wrong.result.trace.for_process(pid);
    for (std::size_t e = 0; e < events.size(); ++e) {
      trace::ObservableEvent ev = events[e];
      if (pid == victim && e == last) ev.data = csp::Value("planted");
      planted.append(std::move(ev));
    }
  }
  wrong.result.trace = std::move(planted);

  Outcome stalled = genuine;
  stalled.incomplete.push_back(wl.clients().back());

  int attempted = 0;
  int passed = 0;
  const Outcome* const cases[] = {&genuine, &wrong, &stalled};
  for (const Outcome* o : cases) {
    std::string why;
    ++attempted;
    if (wl.verify(0, *o, &why)) ++passed;
  }
  // As a passed_run_ratio: 1/3, the genuine run alone.
  const bool ok = attempted == 3 && passed == 1;
  if (!ok) {
    std::fprintf(stderr,
                 "[perfbench] oracle self-check failed: %d of 3 passed\n",
                 passed);
  }
  return ok;
}

std::string signature_text(const Bench& bench) {
  std::ostringstream out;
  for (const auto& [input, sig] : bench.signatures()) {
    out << input << ":";
    for (std::uint64_t v : sig) out << " " << v;
    out << "\n";
  }
  return out.str();
}

/// Run fingerprints must also repeat across runs of the same binary and
/// seed: the first run stores them, later runs compare.
bool check_across_runs(const Args& args, const Bench& bench) {
  if (args.state_dir.empty()) return true;
  const std::string path = args.state_dir + "/" + args.workload + "-" +
                           std::to_string(args.seed) + ".sig";
  const std::string now = signature_text(bench);
  std::ifstream in(path);
  if (in) {
    std::stringstream before;
    before << in.rdbuf();
    if (before.str() != now) {
      std::fprintf(stderr,
                   "[perfbench] fingerprints differ from an earlier run of "
                   "this seed (%s)\n",
                   path.c_str());
      return false;
    }
    return true;
  }
  std::ofstream out(path);
  out << now;
  return true;
}

double ops_per_s(const Workload& wl, const std::vector<double>& run_call_ns) {
  double total = 0;
  for (double ns : run_call_ns) total += ns;
  return total > 0 ? static_cast<double>(wl.ops()) *
                         static_cast<double>(run_call_ns.size()) /
                         (total / 1e9)
                   : 0.0;
}

std::vector<Metric> end_to_end(const Workload& wl, const Args& args,
                               Bench& bench, std::int64_t started) {
  std::vector<double> setup;
  std::vector<double> run_call;
  double optimistic_ns = 0;
  double pessimistic_ns = 0;
  int passed = 0;
  bench.loop(
      static_cast<std::int64_t>(args.seconds * 1e9), kMinInstances, started,
      [](int) { return false; },
      [&](const Instance& in) {
        setup.push_back(in.to_reference(in.setup_ns));
        run_call.push_back(in.to_reference(in.outcome.run_call_ns()));
        optimistic_ns +=
            static_cast<double>(in.outcome.result.last_completion);
        pessimistic_ns += static_cast<double>(wl.pessimistic_ns(in.input));
        if (in.ok) ++passed;
      });
  return {
      {"ops_per_s", ops_per_s(wl, run_call), "1/s"},
      {"run_ms_p50", quantile(run_call, 0.5) / 1e6, "ms"},
      {"run_ms_p90", quantile(run_call, 0.9) / 1e6, "ms"},
      // Means over whole input cycles: chaos_stream's plans split into a
      // fast and a slow half, where a median would jump between them.
      {"virtual_ms",
       run_call.empty() ? 0.0
                        : optimistic_ns / 1e6 /
                              static_cast<double>(run_call.size()),
       "ms"},
      {"virtual_speedup",
       optimistic_ns > 0 ? pessimistic_ns / optimistic_ns : 0.0, "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(setup) / 1e9, "s"},
      {"passed_run_ratio",
       run_call.empty() ? 0.0
                        : static_cast<double>(passed) /
                              static_cast<double>(run_call.size()),
       "ratio"},
  };
}

/// Per-instance totals of the spans called `name` (instances without one
/// are skipped).
std::vector<double> per_instance_ms(const Spans& spans,
                                    const std::string& name) {
  std::map<int, double> total;
  for (const Span& s : spans.all()) {
    if (s.name == name) total[s.instance] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  std::vector<double> out;
  for (const auto& [instance, ms] : total) out.push_back(ms);
  return out;
}

/// Deterministic per-run counts of one instance, by layer.
std::map<std::string, double> layer_counts(const Outcome& o, Spans& spans) {
  const baseline::RunResult& r = o.result;
  const spec::SpecStats& s = r.stats;
  const auto& gauges = r.metrics.gauges();
  std::map<std::string, double> c = {
      {"sim.events", r.metrics.counter_or("sim_events_fired")},
      {"sim.peak_pending", gauges.count("sim_peak_pending")
                               ? gauges.at("sim_peak_pending")
                               : 0.0},
      {"speculation.forks", s.forks},
      {"speculation.spec_forks", s.forks - s.sequential_forks - s.safe_forks},
      {"speculation.commits", s.commits},
      {"speculation.aborts", s.total_aborts()},
      {"speculation.rollbacks", s.rollbacks},
      {"speculation.checkpoints", s.checkpoints},
      {"speculation.control_sent", s.control_sent},
      {"net.messages_sent", r.network.messages_sent},
      {"net.bytes_sent", r.network.bytes_sent},
      {"net.retransmissions", r.metrics.counter_or("retransmissions")},
      {"net.duplicates_suppressed",
       r.metrics.counter_or("duplicates_suppressed")},
      {"fault.faults_injected", r.metrics.counter_or("faults_injected")},
      {"fault.crashes", s.crashes},
      {"exec.gvt_windows", o.windows.size()},
  };
  if (r.recorder) {
    c["obs.recorder_events"] = r.recorder->events().size();
    for (const obs::Event& ev : r.recorder->events()) {
      if (ev.kind != obs::EventKind::kMsgSent) continue;
      c["net.sent_events"] += 1;
      if (ev.control != obs::ControlType::kNone) c["net.control_events"] += 1;
    }
    Scope span(&spans, "obs.build_profile");
    const obs::RunProfile prof =
        obs::build_profile(*r.recorder, r.process_names);
    c["obs.useful_ns"] = prof.global[obs::TimeCategory::kUseful];
    c["obs.wasted_ns"] = prof.global[obs::TimeCategory::kWasted];
  }
  return c;
}

std::vector<Metric> per_layer(const Workload& wl, const Args& args,
                              Bench& bench, Spans& spans,
                              std::int64_t started, bool& correct) {
  // Phase 1: instances, traced and untraced in alternation.  Within a
  // cycle the parity of the input decides, and it flips every cycle, so
  // each input runs both ways.
  std::map<std::string, double> sum;  // layer counts, one instance per input
  std::set<int> counted;
  std::size_t env_vars = 1;
  std::size_t processes = 2;
  std::vector<double> traced_ns;  // at reference host speed
  std::vector<double> untraced_ns;
  std::vector<double> calibration_ns;
  std::vector<double> ns_per_event;
  std::vector<double> window_wall_us;
  const int n = wl.inputs();
  bench.loop(
      static_cast<std::int64_t>(args.seconds * 0.5e9), std::max(20, 2 * n),
      started, [n](int i) { return (i % n + i / n) % 2 == 0; },
      [&](const Instance& in) {
        const Outcome& o = in.outcome;
        (in.traced ? traced_ns : untraced_ns)
            .push_back(in.to_reference(o.run_call_ns()));
        calibration_ns.push_back(in.calibration_ns);
        const double events = static_cast<double>(std::max<std::uint64_t>(
            1, o.result.metrics.counter_or("sim_events_fired")));
        ns_per_event.push_back(static_cast<double>(o.run_ns) / events);
        if (!o.windows.empty()) {
          window_wall_us.push_back(static_cast<double>(o.run_ns) / 1e3 /
                                   static_cast<double>(o.windows.size()));
        }
        if (in.traced && counted.insert(in.input).second) {
          for (const auto& [name, v] : layer_counts(o, spans)) sum[name] += v;
          env_vars = std::max(env_vars, o.max_env_vars);
          processes = o.result.process_names.size();
        }
      });
  // Means per instance over the inputs (deterministic).
  auto mean = [&](const char* name) {
    return counted.empty() ? 0.0
                           : sum[name] / static_cast<double>(counted.size());
  };
  auto ratio = [&](const char* num, const char* den, double none) {
    return sum[den] > 0 ? sum[num] / sum[den] : none;
  };

  // Phase 2: interleaved ratios and layer microbenchmarks.
  const Ratios ratios = run_ratios(
      wl, static_cast<std::int64_t>(args.seconds * 0.12e9), &spans);
  LayerSizes sizes;
  sizes.queue_depth = static_cast<std::size_t>(mean("sim.peak_pending"));
  sizes.env_vars = env_vars;
  sizes.guesses = static_cast<std::size_t>(mean("speculation.forks"));
  sizes.processes = processes;
  const Micro micro = run_micro(sizes, &spans);

  if (!args.spans_out.empty() && !spans.write_json(args.spans_out)) {
    std::fprintf(stderr, "[perfbench] cannot write %s\n",
                 args.spans_out.c_str());
    correct = false;
  }

  const double traced_ops = ops_per_s(wl, traced_ns);
  const double untraced_ops = ops_per_s(wl, untraced_ns);
  auto span_ms = [&](const char* name) {
    const std::vector<double> v = per_instance_ms(spans, name);
    return v.empty() ? 0.0 : median(v);
  };
  sum["obs.kept_ns"] = sum["obs.useful_ns"] + sum["obs.wasted_ns"];
  return {
      {"transform.build_ms", span_ms("core.build_scenario"), "ms"},
      {"analysis.commute_ms", span_ms("analysis.commute_context"), "ms"},
      {"transform.reclassify_ms", span_ms("transform.reclassify"), "ms"},
      {"baseline.build_ms",
       span_ms(wl.workers() == 0 ? "baseline.make_runtime" : "exec.construct"),
       "ms"},
      {"sim.events", mean("sim.events"), "count"},
      {"sim.ns_per_event", median(ns_per_event), "ns"},
      {"sim.peak_pending", mean("sim.peak_pending"), "count"},
      {"sim.push_pop_ns", micro.push_pop_ns, "ns"},
      {"csp.env_set_ns", micro.env_set_ns, "ns"},
      {"csp.env_copy_ns", micro.env_copy_ns, "ns"},
      {"speculation.forks", mean("speculation.forks"), "count"},
      {"speculation.commits", mean("speculation.commits"), "count"},
      {"speculation.aborts", mean("speculation.aborts"), "count"},
      {"speculation.rollbacks", mean("speculation.rollbacks"), "count"},
      {"speculation.checkpoints", mean("speculation.checkpoints"), "count"},
      {"speculation.control_sent", mean("speculation.control_sent"), "count"},
      {"speculation.commit_ratio",
       ratio("speculation.commits", "speculation.spec_forks", 0.0), "ratio"},
      // 1.0 when the workload has no virtual compute to waste.
      {"speculation.useful_ratio", ratio("obs.useful_ns", "obs.kept_ns", 1.0),
       "ratio"},
      {"speculation.stream_growth", ratios.stream_growth, "ratio"},
      {"speculation.history_status_ns", micro.history_status_ns, "ns"},
      {"speculation.cdg_edge_ns", micro.cdg_edge_ns, "ns"},
      {"speculation.guard_merge_ns", micro.guard_merge_ns, "ns"},
      {"net.messages_sent", mean("net.messages_sent"), "count"},
      {"net.bytes_sent", mean("net.bytes_sent"), "bytes"},
      {"net.control_share", ratio("net.control_events", "net.sent_events", 0.0),
       "ratio"},
      {"net.send_deliver_ns", micro.send_deliver_ns, "ns"},
      {"net.retransmissions", mean("net.retransmissions"), "count"},
      {"net.duplicates_suppressed", mean("net.duplicates_suppressed"),
       "count"},
      {"net.frame_ack_ns", micro.frame_ack_ns, "ns"},
      {"fault.faults_injected", mean("fault.faults_injected"), "count"},
      {"fault.crashes", mean("fault.crashes"), "count"},
      {"exec.gvt_windows", mean("exec.gvt_windows"), "count"},
      {"exec.events_per_window", ratio("sim.events", "exec.gvt_windows", 0.0),
       "count"},
      {"exec.window_wall_us", median(window_wall_us), "us"},
      {"exec.empty_window_us", micro.empty_window_us, "us"},
      {"exec.parallel_speedup", ratios.parallel_speedup, "ratio"},
      {"obs.recorder_events", mean("obs.recorder_events"), "count"},
      {"obs.events_per_sim_event",
       ratio("obs.recorder_events", "sim.events", 0.0), "ratio"},
      {"obs.record_ns", micro.record_ns, "ns"},
      {"obs.recorder_overhead_pct", ratios.recorder_overhead_pct, "%"},
      {"baseline.collect_ms", span_ms("baseline.collect"), "ms"},
      {"trace.verify_ms", span_ms("trace.verify"), "ms"},
      {"bench.calibration_us", median(calibration_ns) / 1e3, "us"},
      {"bench.trace_overhead_pct",
       untraced_ops > 0 ? (1.0 - traced_ops / untraced_ops) * 100.0 : 0.0,
       "%"},
  };
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const std::int64_t started = now_ns();
  const std::unique_ptr<Workload> wl = Workload::make(args.workload, args.seed);
  if (!wl) {
    std::fprintf(stderr, "[perfbench] unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf(
      "{\"host\": {\"cores\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"workload\": \"%s\", \"seed\": %llu, \"trace\": %d}}\n",
      std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
      wl->name().c_str(), static_cast<unsigned long long>(args.seed),
      args.trace);
  std::fflush(stdout);

  wl->compute_references();
  bool correct = oracle_self_check(*wl);

  Spans spans;
  Bench bench(*wl, args.trace == 1 ? &spans : nullptr);
  bench.run(0, false);  // warm-up: verified, never timed
  const std::vector<Metric> metrics =
      args.trace == 0 ? end_to_end(*wl, args, bench, started)
                      : per_layer(*wl, args, bench, spans, started, correct);
  correct = correct && bench.failed() == 0 && check_across_runs(args, bench);
  print_result(correct, bench.attempted(), bench.failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: ocsp_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--state-dir DIR] [--spans-out PATH]\n");
    return 2;
  }
  return perfbench::run(args);
}
