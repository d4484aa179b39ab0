// End-to-end integration tests: the full AP -> channel -> tag -> channel ->
// AP pipeline, exercised exactly the way the benches drive it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mmtag/core/link_budget.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/core/network.hpp"

namespace mmtag::core {
namespace {

// Shared 50 MS/s preset from the library.
using core::fast_scenario;

TEST(integration, frame_delivered_at_two_meters)
{
    link_simulator sim(fast_scenario());
    const std::string text = "hello mmWave backscatter";
    const std::vector<std::uint8_t> payload{text.begin(), text.end()};
    const auto result = sim.run_frame(payload);
    ASSERT_TRUE(result.rx.frame_found);
    EXPECT_TRUE(result.rx.crc_ok);
    EXPECT_EQ(result.rx.payload, payload);
    EXPECT_EQ(result.bit_errors, 0u);
    EXPECT_GT(result.rx.snr_db, 15.0);
    EXPECT_GT(result.tag_energy_j, 0.0);
}

TEST(integration, error_free_over_many_frames_at_short_range)
{
    link_simulator sim(fast_scenario());
    const auto report = sim.run_trials(20, 32);
    EXPECT_DOUBLE_EQ(report.per, 0.0);
    EXPECT_DOUBLE_EQ(report.ber, 0.0);
    EXPECT_GT(report.goodput_bps, 1e6);
}

TEST(integration, link_dies_far_beyond_budget_range)
{
    auto cfg = fast_scenario();
    cfg.distance_m = 200.0;
    link_simulator sim(cfg);
    const auto report = sim.run_trials(5, 32);
    EXPECT_GT(report.per, 0.5);
}

TEST(integration, measured_snr_tracks_link_budget)
{
    // The analytic budget is an idealized upper bound; the full receiver
    // pays a small implementation gap (residual clutter wobble, estimator
    // losses). The gap must be bounded and consistent across distance —
    // i.e. the measured curve has the budget's shape.
    double min_gap = 1e9;
    double max_gap = -1e9;
    for (double distance : {2.0, 4.0, 8.0}) {
        auto cfg = fast_scenario();
        cfg.distance_m = distance;
        link_simulator sim(cfg);
        const link_budget budget(cfg);
        const auto report = sim.run_trials(5, 32);
        const double predicted = budget.at(distance).snr_db;
        const double gap = predicted - report.mean_snr_db;
        EXPECT_GT(gap, 0.0) << "measured SNR above the physical bound at " << distance;
        EXPECT_LT(gap, 8.0) << "implementation gap too large at " << distance << " m";
        min_gap = std::min(min_gap, gap);
        max_gap = std::max(max_gap, gap);
    }
    EXPECT_LT(max_gap - min_gap, 3.0); // same shape, constant offset
}

TEST(integration, snr_follows_inverse_fourth_power)
{
    auto near_cfg = fast_scenario();
    near_cfg.distance_m = 2.0;
    auto far_cfg = fast_scenario();
    far_cfg.distance_m = 8.0;
    link_simulator near_sim(near_cfg);
    link_simulator far_sim(far_cfg);
    const double near_snr = near_sim.run_trials(5, 32).mean_snr_db;
    const double far_snr = far_sim.run_trials(5, 32).mean_snr_db;
    // 4x distance -> 24 dB in a two-way channel.
    EXPECT_NEAR(near_snr - far_snr, 24.0, 3.0);
}

TEST(integration, van_atta_survives_rotation_flat_plate_does_not)
{
    auto retro = fast_scenario();
    retro.tag_incidence_rad = deg_to_rad(30.0);
    link_simulator retro_sim(retro);
    const auto retro_report = retro_sim.run_trials(5, 32);
    EXPECT_DOUBLE_EQ(retro_report.per, 0.0);

    auto plate = retro;
    plate.reflector = reflector_kind::flat_plate;
    link_simulator plate_sim(plate);
    const auto plate_report = plate_sim.run_trials(5, 32);
    EXPECT_GT(plate_report.per, 0.5); // specular reflector misses the AP
}

TEST(integration, cancellation_ablation)
{
    // With cancellation off, the DC residual wrecks demodulation even at
    // short range; with it on, the link is clean.
    auto cfg = fast_scenario();
    cfg.receiver.canceller.mode = ap::cancellation_mode::background_subtract;
    link_simulator on(cfg);
    EXPECT_DOUBLE_EQ(on.run_trials(5, 32).per, 0.0);

    cfg.receiver.canceller.mode = ap::cancellation_mode::off;
    cfg.seed += 1;
    link_simulator off(cfg);
    const auto off_report = off.run_trials(5, 32);
    EXPECT_GT(off_report.per, 0.5);
}

TEST(integration, higher_order_modulation_works_at_short_range)
{
    auto cfg = fast_scenario();
    cfg.modulator.frame.scheme = phy::modulation::psk8;
    cfg.modulator.frame.fec = phy::fec_mode::conv_two_thirds;
    cfg.receiver.frame = cfg.modulator.frame;
    link_simulator sim(cfg);
    const auto report = sim.run_trials(10, 48);
    EXPECT_DOUBLE_EQ(report.per, 0.0);
}

TEST(integration, uncoded_psk16_needs_more_snr_than_coded_qpsk)
{
    auto base = fast_scenario();
    base.distance_m = 7.0; // stress the link

    auto robust = base;
    robust.modulator.frame.scheme = phy::modulation::qpsk;
    robust.modulator.frame.fec = phy::fec_mode::conv_half;
    robust.receiver.frame = robust.modulator.frame;

    auto fragile = base;
    fragile.modulator.frame.scheme = phy::modulation::psk16;
    fragile.modulator.frame.fec = phy::fec_mode::uncoded;
    fragile.receiver.frame = fragile.modulator.frame;

    const auto robust_report = link_simulator(robust).run_trials(8, 32);
    const auto fragile_report = link_simulator(fragile).run_trials(8, 32);
    EXPECT_LE(robust_report.per, fragile_report.per);
    EXPECT_GT(fragile_report.ber, robust_report.ber);
}

TEST(integration, energy_accounting_plausible)
{
    link_simulator sim(fast_scenario());
    const auto report = sim.run_trials(5, 64);
    // nJ/bit scale (reconstruction anchor: ~2.4 nJ/bit at 10 Mb/s class).
    EXPECT_GT(report.tag_energy_per_bit_j, 0.1e-9);
    EXPECT_LT(report.tag_energy_per_bit_j, 50e-9);
}

TEST(network, report_structure_and_scaling)
{
    const auto cfg = fast_scenario();
    std::vector<tag_descriptor> tags;
    for (std::uint32_t i = 0; i < 12; ++i) {
        tags.push_back({i, 1.0 + 0.4 * static_cast<double>(i),
                        deg_to_rad(-20.0 + 4.0 * static_cast<double>(i))});
    }
    const network net(cfg, tags);
    const auto report = net.run(99);

    EXPECT_TRUE(report.inventory.complete());
    EXPECT_EQ(report.links.size(), 12u);
    EXPECT_GT(report.aggregate_goodput_bps, 0.0);
    EXPECT_LE(report.min_snr_db, report.max_snr_db);
    // Nearer tags see more SNR.
    EXPECT_GT(report.links.front().snr_db, report.links.back().snr_db);
    // Aggregate cannot exceed the TDMA ceiling.
    EXPECT_LE(report.aggregate_goodput_bps, report.tdma.aggregate_goodput_bps + 1.0);
}

TEST(network, close_population_all_usable)
{
    const auto cfg = fast_scenario();
    std::vector<tag_descriptor> tags;
    for (std::uint32_t i = 0; i < 5; ++i) tags.push_back({i, 2.0, 0.0});
    const auto links = network(cfg, tags).evaluate_links();
    for (const auto& link : links) {
        EXPECT_GT(link.frame_success, 0.99);
        EXPECT_GT(link.rate.efficiency(), 0.5);
    }
}

TEST(network, validation)
{
    EXPECT_THROW(network(fast_scenario(), {}), std::invalid_argument);
}

} // namespace
} // namespace mmtag::core
