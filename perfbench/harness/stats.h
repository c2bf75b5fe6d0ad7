// Order statistics, process counters and the host-speed calibration
// shared by the harness.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"

namespace perfbench {

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident set of this process, in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Host time of one calibration pass on the reference host.  End-to-end
/// host times are reported at this speed: each instance's time is scaled by
/// kCalibrationRefNs ÷ the mean of the passes just before and after it.
inline constexpr double kCalibrationRefNs = 5e5;

/// One pass of a fixed kernel that leans on what the runtime leans on:
/// allocation, node-based containers and indirect calls.  It shares no code
/// with src/, and it allocates from its own fixed arena, so neither a
/// runtime change nor the heap a previous instance left behind moves it;
/// only the host's speed does.  Returns the host time of the second of two
/// back-to-back passes (the first warms the caches).
inline std::int64_t calibration_pass() {
  thread_local std::vector<std::byte> arena(std::size_t{4} << 20);
  std::int64_t elapsed = 0;
  for (int round = 0; round < 2; ++round) {
    std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size(),
                                             std::pmr::null_memory_resource());
    std::pmr::map<std::uint64_t, std::pmr::string> nodes(&pool);
    std::pmr::vector<std::function<void()>> calls(&pool);
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t sink = 0;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < 4000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      nodes.insert_or_assign(
          x % 8192, std::pmr::string(static_cast<std::size_t>(24 + i % 16),
                                     static_cast<char>('a' + i % 26), &pool));
      calls.emplace_back([&sink, i] { sink += static_cast<std::uint64_t>(i); });
      if (i % 3 == 0) nodes.erase(nodes.begin());
    }
    for (const auto& call : calls) call();
    for (const auto& [key, value] : nodes) sink += key + value.size();
    elapsed = now_ns() - t0;
    asm volatile("" : : "g"(&sink) : "memory");
  }
  return elapsed;
}

/// calibration_pass() on `threads` threads at once; the slowest pass, as a
/// window barrier waits for its slowest shard.  A workload that runs on
/// two cores is slowed by either core's host contention.
inline std::int64_t calibration_pass(int threads) {
  if (threads <= 1) return calibration_pass();
  std::vector<std::int64_t> ns(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&ns, t] {
      ns[static_cast<std::size_t>(t)] = calibration_pass();
    });
  }
  for (std::thread& th : pool) th.join();
  return *std::max_element(ns.begin(), ns.end());
}

}  // namespace perfbench
