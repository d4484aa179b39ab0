// The experiments R1..R23, one per bench_rNN_*.cpp, and experiments(), their
// table (experiments.cpp).
#pragma once

#include <span>

#include "bench_util.hpp"

namespace mmtag::bench {

measured r01_van_atta_pattern(const bench_options& opts);
measured r02_constellation(const bench_options& opts);
measured r03_snr_vs_distance(const bench_options& opts);
measured r04_ber_vs_distance(const bench_options& opts);
measured r05_ber_vs_snr(const bench_options& opts);
measured r06_rate_adaptation(const bench_options& opts);
measured r07_orientation(const bench_options& opts);
measured r08_cancellation(const bench_options& opts);
measured r09_inventory(const bench_options& opts);
measured r10_multitag_throughput(const bench_options& opts);
measured r11_energy(const bench_options& opts);
measured r12_fec_gain(const bench_options& opts);
measured r13_switch_speed(const bench_options& opts);
measured r14_impairments(const bench_options& opts);
measured r15_line_codes(const bench_options& opts);
measured r16_lo_architecture(const bench_options& opts);
measured r17_fading(const bench_options& opts);
measured r18_collisions(const bench_options& opts);
measured r19_blockage(const bench_options& opts);
measured r20_sampled_inventory(const bench_options& opts);
measured r21_fault_recovery(const bench_options& opts);
measured r22_network_soak(const bench_options& opts);
measured r23_scale(const bench_options& opts);

/// mmtag_bench's table, one row per experiment.
[[nodiscard]] std::span<const cli::command> experiments();

} // namespace mmtag::bench
