// Edge cases of the stop-and-wait ARQ: retry-cap exhaustion, backoff
// growth and ceiling, retransmissions under ACK loss, and degenerate
// configurations that must be rejected at construction.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "mmtag/mac/arq.hpp"

using namespace mmtag;

namespace {

mac::arq_config backoff_config()
{
    mac::arq_config cfg;
    cfg.max_retries = 6;
    cfg.frame_time_s = 100e-6;
    cfg.ack_time_s = 10e-6;
    cfg.initial_backoff_s = 50e-6;
    cfg.backoff_factor = 2.0;
    cfg.max_backoff_s = 300e-6;
    return cfg;
}

} // namespace

TEST(arq_edge_cases, dead_link_exhausts_retry_cap_exactly)
{
    mac::arq_config cfg;
    cfg.max_retries = 5;
    const mac::stop_and_wait_arq arq(cfg);
    const auto stats = arq.run(20, 0.0, 7);
    EXPECT_EQ(stats.frames_offered, 20u);
    EXPECT_EQ(stats.frames_delivered, 0u);
    EXPECT_EQ(stats.transmissions, 20u * 5u); // every frame burns the full cap
    EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 0.0);
}

TEST(arq_edge_cases, perfect_link_never_retries)
{
    const mac::stop_and_wait_arq arq;
    const auto stats = arq.run(50, 1.0, 7);
    EXPECT_EQ(stats.frames_delivered, 50u);
    EXPECT_EQ(stats.transmissions, 50u);
    // The default config never backs off: airtime is attempts only.
    const auto& cfg = arq.parameters();
    EXPECT_NEAR(stats.airtime_s, 50.0 * (cfg.frame_time_s + cfg.ack_time_s), 1e-12);
}

TEST(arq_edge_cases, backoff_grows_exponentially_then_hits_ceiling)
{
    const mac::stop_and_wait_arq arq(backoff_config());
    EXPECT_DOUBLE_EQ(arq.backoff_delay_s(0), 0.0); // first attempt is immediate
    EXPECT_DOUBLE_EQ(arq.backoff_delay_s(1), 50e-6);
    EXPECT_DOUBLE_EQ(arq.backoff_delay_s(2), 100e-6);
    EXPECT_DOUBLE_EQ(arq.backoff_delay_s(3), 200e-6);
    EXPECT_DOUBLE_EQ(arq.backoff_delay_s(4), 300e-6); // 400 us capped at 300 us
    EXPECT_DOUBLE_EQ(arq.backoff_delay_s(60), 300e-6); // cap holds forever
}

TEST(arq_edge_cases, zero_initial_backoff_disables_all_waits)
{
    auto cfg = backoff_config();
    cfg.initial_backoff_s = 0.0;
    const mac::stop_and_wait_arq arq(cfg);
    for (std::size_t attempt = 0; attempt < 10; ++attempt) {
        EXPECT_DOUBLE_EQ(arq.backoff_delay_s(attempt), 0.0);
    }
    const auto stats = arq.run(10, 0.0, 3);
    const double per_attempt = cfg.frame_time_s + cfg.ack_time_s;
    EXPECT_NEAR(stats.airtime_s, 10.0 * 6.0 * per_attempt, 1e-12); // no waits
}

TEST(arq_edge_cases, dead_link_accumulates_the_full_backoff_ladder)
{
    const auto cfg = backoff_config();
    const mac::stop_and_wait_arq arq(cfg);
    // Per frame: attempts 0..5 wait 0 + 50 + 100 + 200 + 300 + 300 us.
    const double per_frame = (0.0 + 50.0 + 100.0 + 200.0 + 300.0 + 300.0) * 1e-6;
    const auto stats = arq.run(8, 0.0, 11);
    // Waits are part of the airtime the link occupies.
    const double per_attempt = cfg.frame_time_s + cfg.ack_time_s;
    EXPECT_NEAR(stats.airtime_s, 8.0 * (per_frame + 6.0 * per_attempt), 1e-12);
}

TEST(arq_edge_cases, lost_acks_force_duplicates_the_receiver_discards)
{
    mac::arq_config cfg;
    cfg.max_retries = 4;
    cfg.ack_loss = 1.0; // every implicit ACK is lost
    const mac::stop_and_wait_arq arq(cfg);
    const auto stats = arq.run(10, 1.0, 5);
    // The sender never sees an ACK, so it burns the whole retry cap; the
    // receiver counts only the first copy of each frame.
    EXPECT_EQ(stats.frames_delivered, 10u);
    EXPECT_EQ(stats.transmissions, 10u * 4u);
    EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 1.0);
}

TEST(arq_edge_cases, partial_ack_loss_is_between_the_extremes)
{
    mac::arq_config cfg;
    cfg.max_retries = 6;
    cfg.ack_loss = 0.5;
    const mac::stop_and_wait_arq arq(cfg);
    const auto stats = arq.run(200, 1.0, 21);
    // Every attempt succeeds, so each transmission beyond the first per
    // frame repeats a frame after a lost ACK.
    EXPECT_EQ(stats.frames_delivered, 200u);
    EXPECT_GT(stats.transmissions, 200u);
    EXPECT_LT(stats.transmissions, 200u * 6u);
}

TEST(arq_edge_cases, ack_loss_zero_preserves_the_classic_rng_sequence)
{
    // ack_loss == 0 must not consume an extra RNG draw per delivery, so the
    // stats match a config that never heard of ACK loss.
    mac::arq_config classic;
    classic.max_retries = 8;
    const auto a = mac::stop_and_wait_arq(classic).run(100, 0.7, 99);
    mac::arq_config with_field = classic;
    with_field.ack_loss = 0.0;
    const auto b = mac::stop_and_wait_arq(with_field).run(100, 0.7, 99);
    EXPECT_EQ(a.frames_delivered, b.frames_delivered);
    EXPECT_EQ(a.transmissions, b.transmissions);
    EXPECT_DOUBLE_EQ(a.airtime_s, b.airtime_s);
}

TEST(arq_edge_cases, degenerate_configs_throw)
{
    mac::arq_config cfg;
    cfg.max_retries = 0;
    EXPECT_THROW(mac::stop_and_wait_arq{cfg}, std::invalid_argument);

    cfg = {};
    cfg.frame_time_s = 0.0;
    EXPECT_THROW(mac::stop_and_wait_arq{cfg}, std::invalid_argument);

    cfg = {};
    cfg.frame_time_s = -1e-6;
    EXPECT_THROW(mac::stop_and_wait_arq{cfg}, std::invalid_argument);

    cfg = {};
    cfg.ack_time_s = -1e-6;
    EXPECT_THROW(mac::stop_and_wait_arq{cfg}, std::invalid_argument);

    cfg = {};
    cfg.initial_backoff_s = -1e-6;
    EXPECT_THROW(mac::stop_and_wait_arq{cfg}, std::invalid_argument);

    cfg = {};
    cfg.max_backoff_s = -1e-6;
    EXPECT_THROW(mac::stop_and_wait_arq{cfg}, std::invalid_argument);

    cfg = {};
    cfg.backoff_factor = 0.5;
    EXPECT_THROW(mac::stop_and_wait_arq{cfg}, std::invalid_argument);

    cfg = {};
    cfg.ack_loss = 1.5;
    EXPECT_THROW(mac::stop_and_wait_arq{cfg}, std::invalid_argument);

    cfg = {};
    cfg.ack_loss = -0.1;
    EXPECT_THROW(mac::stop_and_wait_arq{cfg}, std::invalid_argument);
}

TEST(arq_edge_cases, invalid_success_probability_throws)
{
    const mac::stop_and_wait_arq arq;
    EXPECT_THROW((void)arq.run(10, -0.1, 1), std::invalid_argument);
    EXPECT_THROW((void)arq.run(10, 1.1, 1), std::invalid_argument);
}

TEST(arq_edge_cases, backoff_stays_finite_at_saturated_attempt_counts)
{
    // factor^(attempt-1) overflows double range long before attempt counters
    // wrap; the ladder must clamp to the cap instead of returning inf/NaN.
    const mac::stop_and_wait_arq arq(backoff_config());
    const std::size_t huge[] = {1u << 20, std::numeric_limits<std::size_t>::max()};
    for (const std::size_t attempt : huge) {
        const double wait = arq.backoff_delay_s(attempt);
        EXPECT_TRUE(std::isfinite(wait)) << "attempt " << attempt;
        EXPECT_DOUBLE_EQ(wait, backoff_config().max_backoff_s);
    }

    // Same clamp when the inputs themselves are extreme but legal.
    auto cfg = backoff_config();
    cfg.backoff_factor = 1e300;
    const mac::stop_and_wait_arq steep(cfg);
    EXPECT_DOUBLE_EQ(steep.backoff_delay_s(2), cfg.max_backoff_s);
    EXPECT_DOUBLE_EQ(steep.backoff_delay_s(1), cfg.initial_backoff_s)
        << "attempt 1 is factor^0 and must not clamp";
}

TEST(arq_edge_cases, same_seed_same_stats)
{
    const mac::stop_and_wait_arq arq(backoff_config());
    const auto a = arq.run(100, 0.6, 1234);
    const auto b = arq.run(100, 0.6, 1234);
    EXPECT_EQ(a.frames_delivered, b.frames_delivered);
    EXPECT_EQ(a.transmissions, b.transmissions);
    EXPECT_DOUBLE_EQ(a.airtime_s, b.airtime_s);
}
