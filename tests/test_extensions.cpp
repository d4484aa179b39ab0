// Tests for the extension subsystems: independent-LO receiver ablation,
// tag-path fading, and the sample-level multi-tag simulator.
#include <gtest/gtest.h>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/core/multitag_simulator.hpp"
#include "mmtag/dsp/estimators.hpp"
#include "mmtag/phy/bitio.hpp"

namespace mmtag::core {
namespace {

// Shared 50 MS/s preset from the library.
using core::fast_scenario;

TEST(lo_mode, independent_lo_with_ideal_synthesizers_still_works)
{
    // Zero CFO *and* zero phase noise on both sides: an independent LO is
    // then indistinguishable from self-coherent operation.
    auto cfg = fast_scenario();
    cfg.transmitter.lo_linewidth_hz = 0.0;
    cfg.receiver.lo = ap::lo_mode::independent;
    cfg.receiver.independent_cfo_hz = 0.0;
    cfg.receiver.independent_linewidth_hz = 0.0;
    link_simulator sim(cfg);
    const auto report = sim.run_trials(5, 32);
    EXPECT_DOUBLE_EQ(report.per, 0.0);
}

TEST(lo_mode, independent_lo_exposes_tx_phase_noise)
{
    // With a separate RX synthesizer, the TX oscillator's random walk is no
    // longer common-mode: the "static" interference wanders during the
    // capture and cancellation degrades — even at zero CFO.
    auto cfg = fast_scenario();
    cfg.transmitter.lo_linewidth_hz = 1e3;
    cfg.receiver.lo = ap::lo_mode::independent;
    cfg.receiver.independent_cfo_hz = 0.0;
    cfg.receiver.independent_linewidth_hz = 0.0;
    link_simulator independent(cfg);
    const auto independent_report = independent.run_trials(5, 32);

    auto coherent = cfg;
    coherent.receiver.lo = ap::lo_mode::self_coherent;
    link_simulator shared(coherent);
    const auto shared_report = shared.run_trials(5, 32);

    EXPECT_DOUBLE_EQ(shared_report.per, 0.0);
    EXPECT_GT(shared_report.mean_snr_db, independent_report.mean_snr_db + 10.0);
}

TEST(lo_mode, cfo_breaks_static_cancellation)
{
    // The ablation that justifies the self-coherent architecture: with a
    // separate LO at even 10 kHz CFO the "static" interference rotates
    // through the capture and the background estimate no longer removes it.
    auto self_coherent = fast_scenario();
    link_simulator good(self_coherent);
    const auto good_report = good.run_trials(5, 32);

    auto independent = fast_scenario();
    independent.receiver.lo = ap::lo_mode::independent;
    independent.receiver.independent_cfo_hz = 10e3;
    link_simulator bad(independent);
    const auto bad_report = bad.run_trials(5, 32);

    EXPECT_DOUBLE_EQ(good_report.per, 0.0);
    EXPECT_GT(good_report.mean_snr_db, bad_report.mean_snr_db + 6.0);
}

TEST(fading, los_default_has_unit_coefficient)
{
    auto cfg = fast_scenario();
    const channel::backscatter_channel chan(make_channel_config(cfg));
    EXPECT_NEAR(std::abs(chan.fading_coefficient() - cf64{1.0, 0.0}), 0.0, 1e-12);
}

TEST(fading, redraw_changes_coefficient)
{
    auto cfg = fast_scenario();
    cfg.rician_k_db = 3.0;
    channel::backscatter_channel chan(make_channel_config(cfg));
    const cf64 first = chan.fading_coefficient();
    chan.redraw_fading(999);
    EXPECT_GT(std::abs(chan.fading_coefficient() - first), 1e-6);
}

TEST(fading, mean_power_preserved_over_draws)
{
    auto cfg = fast_scenario();
    cfg.rician_k_db = 6.0;
    channel::backscatter_channel chan(make_channel_config(cfg));
    double power = 0.0;
    constexpr int draws = 4000;
    for (int i = 0; i < draws; ++i) {
        chan.redraw_fading(static_cast<std::uint64_t>(i));
        power += std::norm(chan.fading_coefficient());
    }
    EXPECT_NEAR(power / draws, 1.0, 0.05);
}

TEST(fading, fading_swings_per_frame_snr)
{
    // LOS frames all measure the same SNR; near-Rayleigh fading (K = -10 dB)
    // must swing per-frame SNR by many dB, with deep dips (> 3 dB below the
    // LOS value) appearing with ~40% probability per frame.
    auto los = fast_scenario();
    los.distance_m = 6.0;
    link_simulator clean(los);
    dsp::running_stats los_snr;
    for (int f = 0; f < 6; ++f) {
        los_snr.add(clean.run_frame(phy::random_bytes(24, 50 + f)).rx.snr_db);
    }
    EXPECT_LT(los_snr.standard_deviation(), 1.0);

    auto faded = los;
    faded.rician_k_db = -10.0;
    link_simulator fading_sim(faded);
    dsp::running_stats faded_snr;
    std::size_t dips = 0;
    for (int f = 0; f < 16; ++f) {
        const auto result = fading_sim.run_frame(phy::random_bytes(24, 90 + f));
        faded_snr.add(result.rx.snr_db);
        if (result.rx.snr_db < los_snr.mean() - 3.0) ++dips;
    }
    EXPECT_GT(faded_snr.standard_deviation(), 2.0);
    EXPECT_GE(dips, 2u); // P(no dip in 16 Rayleigh draws) ~ 0.6^16 ~ 3e-4
}

class multitag_fixture : public ::testing::Test {
protected:
    static multitag_simulator make(std::size_t tag_count)
    {
        std::vector<tag_descriptor> tags;
        for (std::uint32_t i = 0; i < tag_count; ++i) {
            tags.push_back({i, 2.0 + 0.5 * static_cast<double>(i), 0.0});
        }
        return multitag_simulator(fast_scenario(), std::move(tags));
    }
};

TEST_F(multitag_fixture, separated_slots_both_decode)
{
    auto sim = make(2);
    const double slot = sim.burst_duration_s(24) + 20e-6;
    const std::vector<tag_burst> bursts{
        {0, phy::random_bytes(24, 1), 0.0},
        {1, phy::random_bytes(24, 2), slot},
    };
    const auto outcomes = sim.run(bursts);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].delivered);
    EXPECT_TRUE(outcomes[1].delivered);
}

TEST_F(multitag_fixture, full_overlap_of_equal_tags_collides)
{
    std::vector<tag_descriptor> tags{{0, 2.0, 0.0}, {1, 2.0, 0.0}};
    multitag_simulator sim(fast_scenario(), tags);
    const std::vector<tag_burst> bursts{
        {0, phy::random_bytes(24, 3), 0.0},
        {1, phy::random_bytes(24, 4), 0.0},
    };
    const auto outcomes = sim.run(bursts);
    // Comparable-power overlap: at most one side can survive, and for equal
    // links both should normally corrupt.
    EXPECT_FALSE(outcomes[0].delivered && outcomes[1].delivered);
}

TEST_F(multitag_fixture, capture_effect_with_power_disparity)
{
    // A 1.5 m tag is ~16 dB stronger than a 5 m tag; the strong one should
    // survive a collision (capture), the weak one cannot.
    std::vector<tag_descriptor> tags{{0, 1.5, 0.0}, {1, 5.0, 0.0}};
    multitag_simulator sim(fast_scenario(), tags);
    const std::vector<tag_burst> bursts{
        {0, phy::random_bytes(24, 5), 0.0},
        {1, phy::random_bytes(24, 6), 0.0},
    };
    const auto outcomes = sim.run(bursts);
    EXPECT_TRUE(outcomes[0].delivered);
    EXPECT_FALSE(outcomes[1].delivered);
}

TEST_F(multitag_fixture, single_tag_matches_link_simulator)
{
    auto sim = make(1);
    const auto payload = phy::random_bytes(32, 7);
    const auto outcomes = sim.run({{0, payload, 0.0}});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].delivered);
    EXPECT_GT(outcomes[0].snr_db, 25.0);
}

TEST_F(multitag_fixture, capture_duration_is_what_run_advances_the_clock_by)
{
    auto sim = make(3);
    const double slot = sim.burst_duration_s(16) * 1.05;
    const std::vector<tag_burst> bursts{
        {0, phy::random_bytes(16, 1), 0.0, std::nullopt},
        {1, phy::random_bytes(16, 2), slot, ap::rate_table().front()},
        {2, phy::random_bytes(16, 3), 3.0 * slot, std::nullopt},
    };
    const double predicted = sim.capture_duration_s(bursts);
    (void)sim.run(bursts);
    EXPECT_EQ(sim.clock_s(), predicted);
    (void)sim.run(bursts);
    EXPECT_EQ(sim.clock_s(), predicted + predicted);
}

TEST_F(multitag_fixture, validation)
{
    auto sim = make(2);
    EXPECT_THROW((void)sim.run({{5, phy::random_bytes(8, 1), 0.0}}), std::invalid_argument);
    EXPECT_THROW(multitag_simulator(fast_scenario(), {}), std::invalid_argument);
}

} // namespace
} // namespace mmtag::core
