// Traced-run probes: layer microbenchmarks on fixed inputs sized from the
// workload, and ratios measured by interleaving two variants of the same
// run inside one process (so host speed drift cancels).
#pragma once

#include <cstddef>
#include <cstdint>

#include "workloads.h"

namespace perfbench {

/// Input sizes for the microbenchmarks, taken from the workload's runs.
struct LayerSizes {
  std::size_t queue_depth = 1;  ///< sim.peak_pending
  std::size_t env_vars = 1;     ///< largest thread environment
  std::size_t guesses = 1;      ///< forks per instance
  std::size_t processes = 2;
};

struct Micro {
  double push_pop_ns = 0;        ///< Scheduler::at + step at queue depth
  double env_set_ns = 0;         ///< Env::set on an env of env_vars
  double env_copy_ns = 0;        ///< Env copy plus the first write to it
  double history_status_ns = 0;  ///< HistoryTable::status, `guesses` known
  double cdg_edge_ns = 0;        ///< Cdg::add_edge (with its cycle check)
  double guard_merge_ns = 0;     ///< GuardSet copy + merge, one per process
  double send_deliver_ns = 0;    ///< Network::send + delivery
  double frame_ack_ns = 0;       ///< ReliableTransport frame + ack round
  double record_ns = 0;          ///< RunRecorder::record
  double empty_window_us = 0;    ///< two-shard run() with no work, per window
};

Micro run_micro(const LayerSizes& sizes, Spans* spans);

struct Ratios {
  /// ns/event of the full-length run ÷ ns/event at a quarter of its length.
  double stream_growth = 0;
  /// Recorder on vs set_enabled(false), run() time, percent.
  double recorder_overhead_pct = 0;
  /// run_scenario_parallel wall at 1 worker ÷ at 2 workers.
  double parallel_speedup = 0;
};

/// Each ratio interleaves its two variants for about `budget_ns`.
Ratios run_ratios(const Workload& wl, std::int64_t budget_ns, Spans* spans);

}  // namespace perfbench
