// The three benchmark workloads. Untraced runs call only the library entry
// points and produce the end-to-end metrics; the traced run re-runs every
// layer through the mirrors and probes and produces the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct run_options {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /// Directory the run may create temporary files under (phy_table caches).
    std::string scratch_dir;
};

/// One sample-accurate link, QPSK R=1/2, 512 B payloads at 3 m.
[[nodiscard]] workload_result run_link_long(const run_options& options);

/// The chaos soak: 6 tags (2 faulted), both arms, on a 2-worker pool.
[[nodiscard]] workload_result run_soak_multitag(const run_options& options);

/// Scale DES: 100k tags, 16 APs, grid layout, 10% faulted, 50 rounds.
[[nodiscard]] workload_result run_des_100k(const run_options& options);

/// The traced run: every per-layer metric of all three workloads, the
/// mirror fidelity gates, and each workload's tracing overhead.
[[nodiscard]] workload_result run_traced(const run_options& options);

} // namespace perfbench
