#include <gtest/gtest.h>

#include "mmtag/core/config.hpp"
#include "mmtag/core/link_simulator.hpp"

namespace mmtag {
namespace {

TEST(presets, all_presets_validate)
{
    EXPECT_NO_THROW(core::validate(core::default_scenario()));
    EXPECT_NO_THROW(core::validate(core::fast_scenario()));
    EXPECT_NO_THROW(core::validate(core::warehouse_scenario()));
    EXPECT_NO_THROW(core::validate(core::wearable_scenario()));
}

TEST(presets, fast_scenario_matches_default_rf)
{
    const auto fast = core::fast_scenario();
    const auto full = core::default_scenario();
    EXPECT_DOUBLE_EQ(fast.transmitter.tx_power_dbm, full.transmitter.tx_power_dbm);
    EXPECT_EQ(fast.van_atta.element_count, full.van_atta.element_count);
    EXPECT_DOUBLE_EQ(fast.symbol_rate_hz, full.symbol_rate_hz);
    EXPECT_LT(fast.sample_rate_hz, full.sample_rate_hz);
}

TEST(presets, warehouse_preset_delivers)
{
    auto cfg = core::warehouse_scenario();
    cfg.distance_m = 5.0;
    core::link_simulator sim(cfg);
    const auto report = sim.run_trials(3, 32);
    EXPECT_DOUBLE_EQ(report.per, 0.0);
    // 16 elements buy +6 dB over an 8-element tag in the same clutter.
    auto small = core::warehouse_scenario();
    small.distance_m = 5.0;
    small.van_atta.element_count = 8;
    core::link_simulator small_sim(small);
    EXPECT_GT(report.mean_snr_db, small_sim.run_trials(3, 32).mean_snr_db + 3.0);
}

TEST(presets, wearable_preset_streams_at_high_rate)
{
    const auto cfg = core::wearable_scenario();
    core::link_simulator sim(cfg);
    const auto report = sim.run_trials(3, 96);
    EXPECT_DOUBLE_EQ(report.per, 0.0);
    // 12.5 Msym/s x 8-PSK x 2/3 = 25 Mb/s info rate; goodput above 10 Mb/s
    // after framing overhead.
    EXPECT_GT(report.goodput_bps, 10e6);
}

} // namespace
} // namespace mmtag
