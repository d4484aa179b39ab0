// The experiments R1..R23, one per bench_rNN_*.cpp, and experiments(), their
// table (experiments.cpp).
#pragma once

#include <span>

#include "bench_util.hpp"

namespace mmtag::bench {

cli::outcome r01_van_atta_pattern(const bench_options& opts);
cli::outcome r02_constellation(const bench_options& opts);
cli::outcome r03_snr_vs_distance(const bench_options& opts);
cli::outcome r04_ber_vs_distance(const bench_options& opts);
cli::outcome r05_ber_vs_snr(const bench_options& opts);
cli::outcome r06_rate_adaptation(const bench_options& opts);
cli::outcome r07_orientation(const bench_options& opts);
cli::outcome r08_cancellation(const bench_options& opts);
cli::outcome r09_inventory(const bench_options& opts);
cli::outcome r10_multitag_throughput(const bench_options& opts);
cli::outcome r11_energy(const bench_options& opts);
cli::outcome r12_fec_gain(const bench_options& opts);
cli::outcome r13_switch_speed(const bench_options& opts);
cli::outcome r14_impairments(const bench_options& opts);
cli::outcome r15_line_codes(const bench_options& opts);
cli::outcome r16_lo_architecture(const bench_options& opts);
cli::outcome r17_fading(const bench_options& opts);
cli::outcome r18_collisions(const bench_options& opts);
cli::outcome r19_blockage(const bench_options& opts);
cli::outcome r20_sampled_inventory(const bench_options& opts);
cli::outcome r21_fault_recovery(const bench_options& opts);
cli::outcome r22_network_soak(const bench_options& opts);
cli::outcome r23_scale(const bench_options& opts);

/// mmtag_bench's table, one row per experiment.
[[nodiscard]] std::span<const cli::command> experiments();

} // namespace mmtag::bench
