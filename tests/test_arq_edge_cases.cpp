// Edge cases of both retransmission loops: plain stop-and-wait ARQ
// (retry-cap exhaustion, the order of tries, the Bernoulli draw sequence)
// and the supervised loop's outage backoff (growth, ceiling, and the link
// time it adds on a dead link).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mmtag/ap/link_supervisor.hpp"
#include "mmtag/mac/arq.hpp"

using namespace mmtag;

TEST(arq_edge_cases, dead_link_exhausts_retry_cap_exactly)
{
    const auto stats = mac::stop_and_wait(20, 0.0, 7);
    EXPECT_EQ(stats.frames_offered, 20u);
    EXPECT_EQ(stats.frames_delivered, 0u);
    // Every frame burns the full cap.
    EXPECT_EQ(stats.transmissions, 20u * mac::stop_and_wait_tries);
    EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 0.0);
}

TEST(arq_edge_cases, perfect_link_never_retries)
{
    const auto stats = mac::stop_and_wait(50, 1.0, 7);
    EXPECT_EQ(stats.frames_delivered, 50u);
    EXPECT_EQ(stats.transmissions, 50u);
}

TEST(arq_edge_cases, tries_reach_the_link_in_frame_order)
{
    // Frame 0 passes on its third try, frame 1 never passes, frame 2 on its
    // first: the loop asks for (frame, try) pairs in order and stops a frame
    // at its first delivery.
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    const auto stats = mac::stop_and_wait(3, [&](std::size_t frame, std::size_t attempt) {
        calls.emplace_back(frame, attempt);
        return (frame == 0 && attempt == 2) || frame == 2;
    });
    std::vector<std::pair<std::size_t, std::size_t>> expected{{0, 0}, {0, 1}, {0, 2}};
    for (std::size_t k = 0; k < mac::stop_and_wait_tries; ++k) expected.emplace_back(1, k);
    expected.emplace_back(2, 0);
    EXPECT_EQ(calls, expected);
    EXPECT_EQ(stats.frames_delivered, 2u);
    EXPECT_EQ(stats.transmissions, expected.size());
}

TEST(arq_edge_cases, backoff_grows_exponentially_then_hits_ceiling)
{
    using sup = ap::link_supervisor;
    EXPECT_DOUBLE_EQ(sup::backoff_delay_s(0), 0.0); // no wait before the outage
    EXPECT_DOUBLE_EQ(sup::backoff_delay_s(1), 80e-6);
    EXPECT_DOUBLE_EQ(sup::backoff_delay_s(2), 160e-6);
    EXPECT_DOUBLE_EQ(sup::backoff_delay_s(3), 320e-6);
    EXPECT_DOUBLE_EQ(sup::backoff_delay_s(4), 500e-6);  // 640 us capped at 500 us
    EXPECT_DOUBLE_EQ(sup::backoff_delay_s(60), 500e-6); // cap holds forever
}

TEST(arq_edge_cases, dead_link_accumulates_the_full_backoff_ladder)
{
    // One frame over a link that never answers: three data attempts declare
    // the outage, the other nine are probes, each after its backoff wait,
    // and the watchdog re-runs acquisition once its probe budget is spent.
    // Every wait and reacquisition is link time the frame occupies.
    constexpr double data_s = 120e-6;
    constexpr double probe_s = 40e-6;
    constexpr double reacquire_s = 0.5e-3;
    double now_s = 0.0;
    std::size_t reacquisitions = 0;
    ap::link_driver driver;
    driver.transmit = [&](const ap::rate_option&) {
        now_s += data_s;
        return ap::attempt_result{false, -100.0, data_s};
    };
    driver.probe = [&](const ap::rate_option&) {
        now_s += probe_s;
        return ap::attempt_result{false, -100.0, probe_s};
    };
    driver.wait = [&](double wait_s) { now_s += wait_s; };
    driver.reacquire = [&] {
        ++reacquisitions;
        now_s += reacquire_s;
    };
    driver.now = [&] { return now_s; };

    const auto report = ap::run_supervised(ap::rate_table().back(), driver, 1, 192.0);
    using sup = ap::link_supervisor;
    const std::size_t probes = sup::max_tries - sup::outage_streak;
    double waits = 0.0;
    for (std::size_t k = 1; k <= probes; ++k) waits += sup::backoff_delay_s(k);
    EXPECT_EQ(report.frames_delivered, 0u);
    EXPECT_EQ(report.recovery.transmissions, sup::outage_streak);
    EXPECT_EQ(report.recovery.probes, probes);
    EXPECT_EQ(reacquisitions, 1u);
    EXPECT_NEAR(report.elapsed_s,
                static_cast<double>(sup::outage_streak) * data_s +
                    static_cast<double>(probes) * probe_s + waits + reacquire_s,
                1e-12);
}

TEST(arq_edge_cases, ack_loss_zero_preserves_the_classic_rng_sequence)
{
    // The Bernoulli loop draws exactly one uniform per try and nothing else,
    // so its stats match a hand-written loop over the same generator: the
    // sequence R17 and R19 report.
    std::mt19937_64 rng(99);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    std::size_t delivered = 0;
    std::size_t transmissions = 0;
    for (std::size_t f = 0; f < 100; ++f) {
        for (std::size_t k = 0; k < 8; ++k) {
            ++transmissions;
            if (uniform(rng) < 0.7) {
                ++delivered;
                break;
            }
        }
    }
    const auto stats = mac::stop_and_wait(100, 0.7, 99);
    EXPECT_EQ(stats.frames_delivered, delivered);
    EXPECT_EQ(stats.transmissions, transmissions);
}

TEST(arq_edge_cases, invalid_success_probability_throws)
{
    EXPECT_THROW((void)mac::stop_and_wait(10, -0.1, 1), std::invalid_argument);
    EXPECT_THROW((void)mac::stop_and_wait(10, 1.1, 1), std::invalid_argument);
    EXPECT_THROW((void)mac::stop_and_wait(10, std::numeric_limits<double>::quiet_NaN(), 1),
                 std::invalid_argument);
}

TEST(arq_edge_cases, backoff_stays_finite_at_saturated_attempt_counts)
{
    // factor^(probe-1) overflows double range long before probe counters
    // wrap; the ladder must clamp to the cap instead of returning inf/NaN.
    const std::size_t huge[] = {1u << 20, std::numeric_limits<std::size_t>::max()};
    for (const std::size_t probe : huge) {
        const double wait = ap::link_supervisor::backoff_delay_s(probe);
        EXPECT_TRUE(std::isfinite(wait)) << "probe " << probe;
        EXPECT_DOUBLE_EQ(wait, ap::link_supervisor::max_backoff_s);
    }
}

TEST(arq_edge_cases, same_seed_same_stats)
{
    const auto a = mac::stop_and_wait(100, 0.6, 1234);
    const auto b = mac::stop_and_wait(100, 0.6, 1234);
    EXPECT_EQ(a.frames_delivered, b.frames_delivered);
    EXPECT_EQ(a.transmissions, b.transmissions);
}
