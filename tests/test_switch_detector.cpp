#include <gtest/gtest.h>

#include "mmtag/rf/rf_switch.hpp"

namespace mmtag::rf {
namespace {

TEST(rf_switch, max_rate_from_rise_time)
{
    rf_switch::config cfg;
    cfg.rise_fall_time_s = 2e-9;
    rf_switch sw(cfg);
    EXPECT_NEAR(sw.max_symbol_rate_hz(), 250e6, 1.0);
}

TEST(rf_switch, state_waveform_holds_levels)
{
    rf_switch::config cfg;
    cfg.throw_count = 2;
    cfg.insertion_loss_db = 0.0;
    cfg.isolation_db = 200.0;
    cfg.rise_fall_time_s = 0.0; // ideal
    rf_switch sw(cfg);
    const cvec ports{cf64{1.0, 0.0}, cf64{-1.0, 0.0}};
    const std::vector<std::size_t> states{0, 1, 0};
    const cvec wave = sw.state_waveform(states, ports, 4, 1e9);
    ASSERT_EQ(wave.size(), 12u);
    // 200 dB isolation still leaks ~1e-10 of the unselected port.
    for (int i = 0; i < 4; ++i) EXPECT_NEAR(wave[i].real(), 1.0, 1e-9);
    for (int i = 4; i < 8; ++i) EXPECT_NEAR(wave[i].real(), -1.0, 1e-9);
    for (int i = 8; i < 12; ++i) EXPECT_NEAR(wave[i].real(), 1.0, 1e-9);
}

TEST(rf_switch, insertion_loss_scales_amplitude)
{
    rf_switch::config cfg;
    cfg.throw_count = 2;
    cfg.insertion_loss_db = 6.0;
    cfg.isolation_db = 200.0;
    cfg.rise_fall_time_s = 0.0;
    rf_switch sw(cfg);
    const cvec ports{cf64{1.0, 0.0}, cf64{0.0, 0.0}};
    const std::vector<std::size_t> states{0};
    const cvec wave = sw.state_waveform(states, ports, 2, 1e9);
    EXPECT_NEAR(wave[0].real(), std::pow(10.0, -6.0 / 20.0), 1e-9);
}

TEST(rf_switch, finite_rise_time_ramps_between_states)
{
    rf_switch::config cfg;
    cfg.throw_count = 2;
    cfg.insertion_loss_db = 0.0;
    cfg.isolation_db = 200.0;
    cfg.rise_fall_time_s = 4e-9; // 4 samples at 1 GS/s
    rf_switch sw(cfg);
    const cvec ports{cf64{1.0, 0.0}, cf64{-1.0, 0.0}};
    const std::vector<std::size_t> states{0, 1};
    const cvec wave = sw.state_waveform(states, ports, 10, 1e9);
    // First samples of symbol 2 must be intermediate, not -1 yet.
    EXPECT_GT(wave[10].real(), -0.95);
    EXPECT_LT(wave[13].real(), -0.8); // ramp completes within rise time
    EXPECT_NEAR(wave[19].real(), -1.0, 1e-9);
}

TEST(rf_switch, transition_count)
{
    const std::vector<std::size_t> states{0, 0, 1, 2, 2, 0};
    EXPECT_EQ(rf_switch::count_transitions(states), 3u);
    EXPECT_EQ(rf_switch::count_transitions(std::vector<std::size_t>{}), 0u);
}

TEST(rf_switch, validation)
{
    rf_switch::config cfg;
    cfg.throw_count = 1;
    EXPECT_THROW(rf_switch{cfg}, std::invalid_argument);
    cfg.throw_count = 2;
    const cvec ports{cf64{1.0, 0.0}};
    rf_switch sw(cfg);
    EXPECT_THROW((void)sw.state_waveform(std::vector<std::size_t>{0}, ports, 4, 1e9),
                 std::invalid_argument); // port count mismatch
    const cvec two_ports{cf64{1.0, 0.0}, cf64{0.0, 0.0}};
    EXPECT_THROW((void)sw.state_waveform(std::vector<std::size_t>{5}, two_ports, 4, 1e9),
                 std::invalid_argument); // state out of range
}

} // namespace
} // namespace mmtag::rf
