// The benchmark's four workloads.
//
// Each benchmark instance is one closed job: build the scenario (programs,
// transforms, analysis), construct the runtime, run it to completion, and
// verify the committed trace against a Theorem-1 oracle.  Every input is a
// pure function of the command-line seed.  A workload has one input per
// seed, except chaos_stream, which cycles through a fixed sequence of fault
// plans, each with its own network stream.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/scenario.h"
#include "exec/parallel.h"
#include "spans.h"
#include "speculation/runtime.h"

namespace perfbench {

using namespace ocsp;

/// A built scenario with its runtime constructed, stopped before run().
/// Exactly one of `seq` / `par` is set.
struct Prepared {
  baseline::Scenario scenario;
  std::unique_ptr<spec::Runtime> seq;
  std::unique_ptr<exec::ParallelRuntime> par;
};

/// What one run produced, collected exactly as baseline::run_scenario /
/// exec::run_scenario_parallel collect it.
struct Outcome {
  baseline::RunResult result;
  std::vector<exec::WindowStats> windows;
  std::int64_t run_ns = 0;      ///< host time inside run()
  std::int64_t collect_ns = 0;  ///< host time collecting the result after it
  /// Client processes (by name) that did not complete.
  std::vector<std::string> incomplete;
  /// Largest variable count of any thread's environment at the end.
  std::size_t max_env_vars = 0;

  std::int64_t run_call_ns() const { return run_ns + collect_ns; }
};

class Workload {
 public:
  /// Null for an unknown workload name.
  static std::unique_ptr<Workload> make(const std::string& name,
                                        std::uint64_t seed);

  const std::string& name() const { return name_; }
  /// Distinct inputs; instance i runs input i % inputs().
  int inputs() const { return static_cast<int>(inputs_.size()); }
  /// Committed client operations (call + send statements) per instance.
  int ops() const;
  /// Worker threads of the parallel executor; 0 = sequential kernel.
  int workers() const { return kind_ == Kind::kShardedFanout ? 2 : 0; }
  /// Client process names, each of which must complete.
  std::vector<std::string> clients() const;

  /// Pessimistic reference runs for every input (the oracle and the
  /// speedup base).  Untimed; call once before any verify().
  void compute_references();

  /// Build input `input` and construct its runtime.  `divisor` > 1
  /// shortens the run (stream length, calls or iterations) for the
  /// length-scaling probe.
  Prepared prepare(int input, Spans* spans, int divisor = 1) const;

  /// Run to completion and collect.
  Outcome run(Prepared& p, Spans* spans) const;

  /// Theorem-1 oracle plus the per-client completion check.
  bool verify(int input, const Outcome& o, std::string* why) const;

  /// Virtual completion of the pessimistic run of this input.
  sim::Time pessimistic_ns(int input) const {
    return pessimistic_ns_[static_cast<std::size_t>(input)];
  }

  /// Deterministic fingerprint of a run: counters and virtual times that
  /// must repeat bit-for-bit for the same input.
  static std::vector<std::uint64_t> signature(const Outcome& o);

 private:
  enum class Kind { kLongStream, kShardedFanout, kChaosStream, kRegistry };

  Workload(Kind kind, std::string name, std::uint64_t seed);
  baseline::Scenario build(int input, Spans* spans, int divisor) const;

  Kind kind_;
  std::string name_;
  struct Input {
    std::uint64_t net_seed;   ///< scenario (network) seed
    std::uint64_t plan_seed;  ///< chaos_stream's fault-plan seed
  };
  std::vector<Input> inputs_;
  /// Oracle traces: the pessimistic run of each input, fault-free on
  /// chaos_stream.
  std::vector<trace::CommittedTrace> oracle_;
  /// Pessimistic virtual completion of each input, faults included.
  std::vector<sim::Time> pessimistic_ns_;
};

}  // namespace perfbench
