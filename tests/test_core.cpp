#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "mmtag/channel/atmosphere.hpp"
#include "mmtag/channel/path_loss.hpp"
#include "mmtag/core/baselines.hpp"
#include "mmtag/core/config.hpp"
#include "mmtag/core/link_budget.hpp"
#include "mmtag/core/metrics.hpp"
#include "mmtag/rf/noise.hpp"

namespace mmtag::core {
namespace {

TEST(config, default_scenario_validates)
{
    EXPECT_NO_THROW(validate(default_scenario()));
}

TEST(config, inconsistent_rates_rejected)
{
    auto cfg = default_scenario();
    cfg.symbol_rate_hz = 3e6; // 250/3 not integer
    EXPECT_THROW(validate(cfg), std::invalid_argument);

    cfg = default_scenario();
    cfg.modulator.sample_rate_hz = 500e6;
    EXPECT_THROW(validate(cfg), std::invalid_argument);

    cfg = default_scenario();
    cfg.receiver.samples_per_symbol = 10;
    EXPECT_THROW(validate(cfg), std::invalid_argument);
}

TEST(config, channel_derivation_uses_reflector_model)
{
    auto cfg = default_scenario();
    cfg.tag_incidence_rad = 0.0;
    const auto broadside = make_channel_config(cfg);
    // 8-element Van Atta with ~6.5 dBi patches: N^2 * g^2 ~= 64 * 20 = 31 dB.
    EXPECT_NEAR(broadside.tag_backscatter_gain_db, 31.0, 2.5);

    cfg.tag_incidence_rad = deg_to_rad(30.0);
    const auto tilted = make_channel_config(cfg);
    // Van Atta keeps most of its gain off-axis (element roll-off only).
    EXPECT_GT(tilted.tag_backscatter_gain_db, broadside.tag_backscatter_gain_db - 8.0);

    cfg.reflector = reflector_kind::flat_plate;
    const auto plate = make_channel_config(cfg);
    EXPECT_LT(plate.tag_backscatter_gain_db, tilted.tag_backscatter_gain_db - 10.0);
}

/// The full-channel budget: link_budget::at as it was while it built a whole
/// backscatter_channel per distance, with the tag-path lines of the channel
/// constructor and its two power queries inlined as they were written there.
/// The library, which evaluates the distance-invariant terms once, must
/// match it bit for bit.
namespace reference {

link_budget_entry at(const system_config& base, double distance_m)
{
    system_config cfg = base;
    cfg.distance_m = distance_m;
    const channel::backscatter_channel::config chan_cfg = make_channel_config(cfg);
    const channel::backscatter_channel chan(chan_cfg);

    // backscatter_channel::backscatter_channel, tag path.
    const double tx_gain = from_db(chan_cfg.ap_tx_gain_dbi);
    const double rx_gain = from_db(chan_cfg.ap_rx_gain_dbi);
    const double backscatter_gain = from_db(chan_cfg.tag_backscatter_gain_db);
    const double aperture_gain = from_db(chan_cfg.tag_aperture_gain_db);
    // channel::atmospheric_loss_db: km x (clear air + rain) dB/km.
    const double km = chan_cfg.distance_m / 1000.0;
    const double atmospheric_loss_db =
        km * (channel::gaseous_attenuation_db_per_km(chan_cfg.frequency_hz) +
              channel::rain_attenuation_db_per_km(chan_cfg.frequency_hz,
                                                  chan_cfg.rain_rate_mm_per_hr));
    const double atmospheric = from_db(-atmospheric_loss_db);
    const double implementation = std::pow(10.0, -chan_cfg.implementation_loss_db / 20.0);
    const double round_trip_power =
        channel::backscatter_received_power(1.0, tx_gain, rx_gain, backscatter_gain,
                                            chan_cfg.distance_m, chan_cfg.frequency_hz);
    const double round_trip_amplitude =
        std::sqrt(round_trip_power) * atmospheric * implementation;
    const double one_way_power = channel::one_way_received_power(
        1.0, tx_gain, aperture_gain, chan_cfg.distance_m, chan_cfg.frequency_hz);
    const double one_way_amplitude =
        std::sqrt(one_way_power * atmospheric) * std::sqrt(implementation);

    // link_budget::at.
    const double tx_power_w = dbm_to_watt(cfg.transmitter.tx_power_dbm);
    link_budget_entry entry;
    entry.distance_m = distance_m;
    entry.incident_at_tag_dbm =
        watt_to_dbm(tx_power_w * one_way_amplitude * one_way_amplitude);
    const double gamma_loss_db = cfg.modulator.rf_switch.insertion_loss_db +
                                 cfg.modulator.bank.stub_loss_db;
    entry.received_at_ap_dbm =
        watt_to_dbm(tx_power_w * round_trip_amplitude * round_trip_amplitude *
                    std::norm(chan.fading_coefficient())) -
        gamma_loss_db;
    entry.static_interference_dbm = watt_to_dbm(chan.static_interference_power(tx_power_w));
    const double noise_w = rf::thermal_noise_power(cfg.symbol_rate_hz) *
                           from_db(cfg.receiver.lna.noise_figure_db);
    entry.noise_floor_dbm = watt_to_dbm(noise_w);
    entry.snr_db = entry.received_at_ap_dbm - entry.noise_floor_dbm;
    return entry;
}

} // namespace reference

bool same_bits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(link_budget, matches_the_full_channel_reference_bit_for_bit)
{
    std::vector<std::pair<const char*, system_config>> cases{
        {"default", default_scenario()}, {"fast", fast_scenario()}};
    auto plate = fast_scenario();
    plate.reflector = reflector_kind::flat_plate;
    plate.tag_incidence_rad = deg_to_rad(20.0);
    cases.emplace_back("flat plate", plate);
    auto rain = default_scenario();
    rain.rain_rate_mm_per_hr = 25.0;
    cases.emplace_back("rain", rain);
    auto fading = fast_scenario();
    fading.rician_k_db = 6.0;
    fading.seed = 7;
    cases.emplace_back("rician", fading);

    std::vector<double> distances{0.05, 1000.0};
    for (int i = 1; i < 400; ++i) {
        distances.push_back(0.05 * std::pow(1000.0 / 0.05, static_cast<double>(i) / 400.0));
    }
    for (const auto& [name, cfg] : cases) {
        const link_budget budget(cfg);
        for (const double d : distances) {
            const link_budget_entry got = budget.at(d);
            const link_budget_entry want = reference::at(cfg, d);
            EXPECT_TRUE(same_bits(got.distance_m, want.distance_m)) << name << " " << d;
            EXPECT_TRUE(same_bits(got.incident_at_tag_dbm, want.incident_at_tag_dbm))
                << name << " " << d;
            EXPECT_TRUE(same_bits(got.received_at_ap_dbm, want.received_at_ap_dbm))
                << name << " " << d;
            EXPECT_TRUE(same_bits(got.noise_floor_dbm, want.noise_floor_dbm)) << name << " " << d;
            EXPECT_TRUE(same_bits(got.snr_db, want.snr_db)) << name << " " << d;
            EXPECT_TRUE(same_bits(got.static_interference_dbm, want.static_interference_dbm))
                << name << " " << d;
        }
    }
}

TEST(link_budget, snr_decreases_40_db_per_decade)
{
    const link_budget budget(default_scenario());
    const auto near = budget.at(1.0);
    const auto far = budget.at(10.0);
    EXPECT_NEAR(near.snr_db - far.snr_db, 40.0, 0.5);
}

TEST(link_budget, positive_snr_at_short_range)
{
    const link_budget budget(default_scenario());
    EXPECT_GT(budget.at(2.0).snr_db, 20.0); // healthy margin at 2 m
}

TEST(link_budget, interference_dominates_signal)
{
    // Leakage and clutter are orders of magnitude above the tag return —
    // the reason the canceller exists.
    const link_budget budget(default_scenario());
    const auto entry = budget.at(3.0);
    EXPECT_GT(entry.static_interference_dbm, entry.received_at_ap_dbm + 30.0);
}

TEST(link_budget, max_range_consistent_with_at)
{
    const link_budget budget(default_scenario());
    const double range = budget.max_range_m(10.0);
    ASSERT_GT(range, 0.0);
    EXPECT_NEAR(budget.at(range).snr_db, 10.0, 0.2);
    EXPECT_LT(budget.at(range * 1.5).snr_db, 10.0);
}

TEST(link_budget, sweep_is_monotone)
{
    const link_budget budget(default_scenario());
    const auto entries = budget.sweep(0.5, 10.0, 20);
    ASSERT_EQ(entries.size(), 20u);
    for (std::size_t i = 1; i < entries.size(); ++i) {
        EXPECT_LT(entries[i].snr_db, entries[i - 1].snr_db);
    }
}

TEST(metrics, error_counter_bits)
{
    error_counter counter;
    const std::vector<std::uint8_t> sent{0xFF, 0x00};
    const std::vector<std::uint8_t> received{0xFD, 0x01}; // 2 bit errors
    counter.add_frame(sent, received, false);
    EXPECT_EQ(counter.bits(), 16u);
    EXPECT_EQ(counter.bit_errors(), 2u);
    EXPECT_DOUBLE_EQ(counter.ber(), 2.0 / 16.0);
    EXPECT_DOUBLE_EQ(counter.per(), 1.0);
}

TEST(metrics, error_counter_delivered)
{
    error_counter counter;
    const std::vector<std::uint8_t> frame{0xAB};
    counter.add_frame(frame, frame, true);
    counter.add_frame(frame, frame, true);
    EXPECT_DOUBLE_EQ(counter.per(), 0.0);
    EXPECT_DOUBLE_EQ(counter.ber(), 0.0);
}

TEST(metrics, lost_frame_counts_half_errors)
{
    error_counter counter;
    counter.add_lost_frame(10);
    EXPECT_EQ(counter.bits(), 80u);
    EXPECT_EQ(counter.bit_errors(), 40u);
}

TEST(metrics, per_from_ber)
{
    EXPECT_NEAR(per_from_ber(0.0, 1000), 0.0, 1e-15);
    EXPECT_NEAR(per_from_ber(1e-3, 1000), 1.0 - std::pow(0.999, 1000.0), 1e-12);
}

TEST(metrics, ber_confidence_shrinks_with_samples)
{
    error_counter small;
    error_counter large;
    const std::vector<std::uint8_t> ok{0x00};
    for (int i = 0; i < 10; ++i) small.add_frame(ok, ok, true);
    for (int i = 0; i < 10000; ++i) large.add_frame(ok, ok, true);
    EXPECT_GT(small.ber_confidence(), large.ber_confidence());
}

TEST(baselines, active_radio_dwarfs_tag_power)
{
    const active_radio_model radio{};
    EXPECT_GT(radio.total_power_w(), 0.3); // hundreds of mW
    // ~50x or more above a ~25 mW backscatter tag.
    EXPECT_GT(radio.total_power_w() / 25e-3, 10.0);
}

TEST(baselines, phased_array_tag_unaffordable)
{
    const phased_array_tag_model array{};
    // Even the array alone exceeds the whole tag budget.
    EXPECT_GT(array.total_power_w(), 100e-3);
}

TEST(baselines, literature_points_present)
{
    const auto points = literature_energy_points();
    ASSERT_GE(points.size(), 3u);
    bool has_anchor = false;
    for (const auto& p : points) {
        if (p.name.find("mmTag") != std::string::npos) {
            has_anchor = true;
            EXPECT_NEAR(p.energy_per_bit_j, 2.4e-9, 1e-12);
        }
    }
    EXPECT_TRUE(has_anchor);
}

} // namespace
} // namespace mmtag::core
