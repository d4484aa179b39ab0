// Shared helpers for the benchmark driver: a steady-clock stopwatch, the
// allocation counter fed by the replaced global operator new, medians, and
// the ordered metric list every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock_type::time_point start)
{
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// CPU time this process has used so far, summed over all its threads [s].
/// Unlike wall time it does not count the time the host's scheduler gives
/// to other programs, which makes throughput figures steadier on a shared
/// machine.
[[nodiscard]] double process_cpu_seconds();

/// Heap allocations made by the calling thread so far (operator new calls,
/// counted in alloc_count.cpp). Differences between two reads give the
/// allocations of the code in between.
[[nodiscard]] std::uint64_t thread_allocations();

/// Median of a non-empty sample (mean of the middle pair for even sizes).
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set size of this process [MB].
[[nodiscard]] double peak_rss_mb();

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one workload run reports back to main().
struct workload_result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<metric> metrics;
    /// Deterministic output of the run (a pure function of the seed) and a
    /// printable JSON summary of it.
    std::string digest;
    std::string digest_summary;
    /// phy_table fingerprint of the configuration the workload ran.
    std::string phy_table_fingerprint;
    /// Human-readable reason when `correct` is false.
    std::string error;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void fail(const std::string& why)
    {
        if (correct) error = why;
        correct = false;
    }
};

} // namespace perfbench
