#include <gtest/gtest.h>

#include <random>

#include "mmtag/channel/atmosphere.hpp"
#include "mmtag/channel/backscatter_channel.hpp"
#include "mmtag/channel/fading.hpp"
#include "mmtag/channel/path_loss.hpp"
#include "mmtag/dsp/estimators.hpp"

namespace mmtag::channel {
namespace {

TEST(path_loss, friis_known_value)
{
    // FSPL(1 m, 24 GHz) = 20 log10(4 pi / lambda) ~= 60.05 dB.
    EXPECT_NEAR(to_db(free_space_path_loss(1.0, 24e9)), 60.05, 0.05);
    // +20 dB per decade of distance.
    EXPECT_NEAR(to_db(free_space_path_loss(10.0, 24e9) / free_space_path_loss(1.0, 24e9)),
                20.0, 1e-9);
}

TEST(path_loss, backscatter_follows_fourth_power)
{
    const double p2 = backscatter_received_power(1.0, 100.0, 100.0, 60.0, 2.0, 24e9);
    const double p4 = backscatter_received_power(1.0, 100.0, 100.0, 60.0, 4.0, 24e9);
    EXPECT_NEAR(p2 / p4, 16.0, 1e-9);
}

TEST(path_loss, one_way_round_trip_consistency)
{
    // Backscatter power = one-way power * one-way loss * Gb / Grx_tag.
    const double tx_gain = from_db(20.0);
    const double rx_gain = from_db(20.0);
    const double backscatter_gain = from_db(18.0);
    const double d = 3.0;
    const double f = 24e9;
    const double one_way = one_way_received_power(1.0, tx_gain, 1.0, d, f);
    const double two_way = backscatter_received_power(1.0, tx_gain, rx_gain,
                                                      backscatter_gain, d, f);
    EXPECT_NEAR(two_way,
                one_way * backscatter_gain * rx_gain / free_space_path_loss(d, f), 1e-20);
}

TEST(atmosphere, oxygen_peak_at_60_ghz)
{
    EXPECT_GT(gaseous_attenuation_db_per_km(60e9), 10.0);
    EXPECT_LT(gaseous_attenuation_db_per_km(24e9), 0.3);
    EXPECT_LT(gaseous_attenuation_db_per_km(24e9), gaseous_attenuation_db_per_km(60e9) / 30.0);
}

TEST(atmosphere, rain_monotone_in_rate)
{
    const double light = rain_attenuation_db_per_km(28e9, 5.0);
    const double heavy = rain_attenuation_db_per_km(28e9, 50.0);
    EXPECT_GT(heavy, light * 2.0);
    EXPECT_DOUBLE_EQ(rain_attenuation_db_per_km(28e9, 0.0), 0.0);
}

TEST(atmosphere, negligible_indoors_at_24_ghz)
{
    // 10 m at 24 GHz: well under 0.01 dB.
    EXPECT_LT(atmospheric_loss_db(10.0, gaseous_attenuation_db_per_km(24.125e9)), 0.01);
}

TEST(fading, rician_high_k_is_nearly_los)
{
    std::mt19937_64 rng(3);
    dsp::running_stats magnitude;
    for (int i = 0; i < 2000; ++i) magnitude.add(std::abs(rician_coefficient(30.0, rng)));
    EXPECT_NEAR(magnitude.mean(), 1.0, 0.02);
    EXPECT_LT(magnitude.standard_deviation(), 0.05);
}

TEST(fading, rician_mean_power_is_unity)
{
    std::mt19937_64 rng(4);
    double power = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) power += std::norm(rician_coefficient(3.0, rng));
    EXPECT_NEAR(power / n, 1.0, 0.03);
}

class backscatter_channel_fixture : public ::testing::Test {
protected:
    static backscatter_channel::config base_config()
    {
        backscatter_channel::config cfg;
        cfg.sample_rate_hz = 250e6;
        cfg.distance_m = 2.0;
        cfg.tag_backscatter_gain_db = 18.0;
        cfg.tag_aperture_gain_db = 9.0;
        cfg.tx_leakage_db = -40.0;
        return cfg;
    }
};

TEST_F(backscatter_channel_fixture, delays_match_geometry)
{
    backscatter_channel chan(base_config());
    // 2 m -> 6.67 ns one way -> 1.67 samples at 250 MS/s -> rounds to 2.
    EXPECT_EQ(chan.one_way_delay_samples(), 2u);
}

TEST_F(backscatter_channel_fixture, tag_path_power_matches_radar_equation)
{
    const auto cfg = base_config();
    backscatter_channel chan(cfg);
    const double expected = backscatter_received_power(
        1.0, from_db(cfg.ap_tx_gain_dbi), from_db(cfg.ap_rx_gain_dbi),
        from_db(cfg.tag_backscatter_gain_db), cfg.distance_m, cfg.frequency_hz);
    const double amplitude = chan.round_trip_amplitude();
    EXPECT_NEAR(amplitude * amplitude / expected, 1.0, 0.001);
}

TEST_F(backscatter_channel_fixture, incident_power_matches_friis)
{
    const auto cfg = base_config();
    backscatter_channel chan(cfg);
    const double expected = one_way_received_power(
        1.0, from_db(cfg.ap_tx_gain_dbi), from_db(cfg.tag_aperture_gain_db),
        cfg.distance_m, cfg.frequency_hz);
    const double amplitude = tag_path_at(chan.path_gains(), cfg.distance_m).one_way;
    EXPECT_NEAR(amplitude * amplitude / expected, 1.0, 0.001);
}

TEST_F(backscatter_channel_fixture, unmodulated_tag_gives_pure_dc_baseband)
{
    backscatter_channel chan(base_config());
    const cvec tx(1000, cf64{1.0, 0.0});
    const cvec gamma(1000, cf64{-1.0, 0.0}); // static reflective
    const cvec rx = chan.ap_received(tx, gamma);
    // After the transient, output is constant (leakage + static tag return).
    for (std::size_t i = 10; i < rx.size(); ++i) {
        EXPECT_NEAR(std::abs(rx[i] - rx[9]), 0.0, 1e-12);
    }
}

TEST_F(backscatter_channel_fixture, modulated_tag_reaches_receiver)
{
    backscatter_channel chan(base_config());
    const std::size_t n = 1000;
    const cvec tx(n, cf64{1.0, 0.0});
    cvec gamma(n);
    for (std::size_t i = 0; i < n; ++i) gamma[i] = (i / 50) % 2 == 0 ? cf64{-1.0, 0.0}
                                                                     : cf64{1.0, 0.0};
    const cvec rx = chan.ap_received(tx, gamma);
    // The modulation must appear: rx is not constant.
    double max_dev = 0.0;
    for (std::size_t i = 10; i < n; ++i) max_dev = std::max(max_dev, std::abs(rx[i] - rx[9]));
    const double tag_amplitude = chan.round_trip_amplitude();
    EXPECT_NEAR(max_dev, 2.0 * tag_amplitude, 0.2 * tag_amplitude);
}

TEST_F(backscatter_channel_fixture, clutter_adds_static_interference)
{
    auto cfg = base_config();
    const backscatter_channel clean(cfg);
    cfg.clutter = {{3.0, 1.0}};
    const backscatter_channel cluttered(cfg);
    EXPECT_GT(cluttered.static_interference_power(1.0), clean.static_interference_power(1.0));
}

TEST_F(backscatter_channel_fixture, validation)
{
    auto cfg = base_config();
    cfg.distance_m = 0.0;
    EXPECT_THROW(backscatter_channel{cfg}, std::invalid_argument);
    cfg = base_config();
    cfg.clutter = {{-1.0, 1.0}};
    EXPECT_THROW(backscatter_channel{cfg}, std::invalid_argument);
}

} // namespace
} // namespace mmtag::channel
