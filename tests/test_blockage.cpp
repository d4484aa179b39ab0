#include <gtest/gtest.h>

#include "mmtag/channel/blockage.hpp"

namespace mmtag {
namespace {

rvec trace_of(channel::blockage_process& process, std::size_t count)
{
    rvec out(count);
    for (auto& v : out) v = process.step();
    return out;
}

TEST(blockage, levels_bounded_and_reach_both_states)
{
    channel::blockage_process::config cfg;
    cfg.sample_rate_hz = 1e6;
    cfg.mean_clear_s = 2e-3;
    cfg.mean_blocked_s = 1e-3;
    cfg.blockage_loss_db = 20.0;
    cfg.transition_s = 50e-6;
    channel::blockage_process process(cfg, 7);
    const rvec trace = trace_of(process, 2'000'000); // 2 s of process
    const double blocked_amp = std::pow(10.0, -1.0);
    double low = 1.0;
    double high = 0.0;
    for (double v : trace) {
        EXPECT_GE(v, blocked_amp - 1e-9);
        EXPECT_LE(v, 1.0 + 1e-9);
        low = std::min(low, v);
        high = std::max(high, v);
    }
    EXPECT_NEAR(low, blocked_amp, 1e-6);  // reached fully blocked
    EXPECT_NEAR(high, 1.0, 1e-6);         // reached fully clear
}

TEST(blockage, duty_cycle_matches_dwell_ratio)
{
    channel::blockage_process::config cfg;
    cfg.sample_rate_hz = 1e6;
    cfg.mean_clear_s = 3e-3;
    cfg.mean_blocked_s = 1e-3;
    cfg.transition_s = 10e-6;
    channel::blockage_process process(cfg, 11);
    // Fraction of samples below the midpoint amplitude vs the dwell ratio
    // mean_blocked / (mean_blocked + mean_clear) = 0.25.
    const rvec trace = trace_of(process, 4'000'000);
    std::size_t blocked = 0;
    for (double v : trace) {
        if (v < 0.55) ++blocked;
    }
    EXPECT_NEAR(static_cast<double>(blocked) / trace.size(), 0.25, 0.08);
}

TEST(blockage, transitions_are_smooth)
{
    channel::blockage_process::config cfg;
    cfg.sample_rate_hz = 1e6;
    cfg.transition_s = 100e-6; // 100 samples
    channel::blockage_process process(cfg, 13);
    const rvec trace = trace_of(process, 3'000'000);
    const double max_step = (1.0 - std::pow(10.0, -1.0)) / 100.0;
    for (std::size_t i = 1; i < trace.size(); ++i) {
        EXPECT_LE(std::abs(trace[i] - trace[i - 1]), max_step * 1.001);
    }
}

TEST(blockage, deterministic_by_seed)
{
    channel::blockage_process a({}, 5);
    channel::blockage_process b({}, 5);
    EXPECT_EQ(trace_of(a, 10000), trace_of(b, 10000));
}

TEST(blockage, validation)
{
    channel::blockage_process::config cfg;
    cfg.mean_clear_s = 0.0;
    EXPECT_THROW(channel::blockage_process(cfg, 1), std::invalid_argument);
}

} // namespace
} // namespace mmtag
