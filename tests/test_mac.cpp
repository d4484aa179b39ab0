#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "mmtag/mac/arq.hpp"
#include "mmtag/mac/slotted_aloha.hpp"
#include "mmtag/mac/tdma.hpp"

namespace mmtag::mac {
namespace {

class aloha_population : public ::testing::TestWithParam<std::size_t> {};

TEST_P(aloha_population, inventories_everyone)
{
    aloha_inventory inventory{aloha_config{}};
    const auto stats = inventory.run(GetParam(), 42);
    EXPECT_TRUE(stats.complete()) << "found " << stats.tags_identified << "/"
                                  << stats.tags_total;
    EXPECT_EQ(stats.slots_used,
              stats.idle_slots + stats.singleton_slots + stats.collision_slots);
}

TEST_P(aloha_population, efficiency_in_plausible_band)
{
    if (GetParam() < 8) GTEST_SKIP() << "efficiency noisy for tiny populations";
    aloha_inventory inventory{aloha_config{}};
    const auto stats = inventory.run(GetParam(), 7);
    // Framed slotted ALOHA peaks at 1/e ~= 0.368; with Q adaptation overhead
    // (initial frame sizes far from the population) practical efficiency
    // lands between 0.10 and 0.45.
    EXPECT_GT(stats.efficiency(), 0.08);
    EXPECT_LT(stats.efficiency(), 0.45);
}

INSTANTIATE_TEST_SUITE_P(populations, aloha_population,
                         ::testing::Values(1u, 2u, 5u, 10u, 25u, 50u, 100u, 200u));

TEST(aloha, deterministic_for_seed)
{
    aloha_inventory inventory{aloha_config{}};
    const auto a = inventory.run(30, 5);
    const auto b = inventory.run(30, 5);
    EXPECT_EQ(a.slots_used, b.slots_used);
    EXPECT_EQ(a.rounds, b.rounds);
}

TEST(aloha, lossy_phy_needs_more_slots)
{
    aloha_config reliable;
    reliable.singleton_success = 1.0;
    aloha_config lossy;
    lossy.singleton_success = 0.5;
    const auto a = aloha_inventory(reliable).run(50, 9);
    const auto b = aloha_inventory(lossy).run(50, 9);
    EXPECT_LT(a.slots_used, b.slots_used);
}

TEST(aloha, theoretical_peak)
{
    EXPECT_DOUBLE_EQ(aloha_inventory::theoretical_peak_efficiency(1), 1.0);
    // (1 - 1/n)^(n-1) -> 1/e for large n.
    EXPECT_NEAR(aloha_inventory::theoretical_peak_efficiency(1000), 1.0 / std::exp(1.0),
                0.001);
}

TEST(aloha, zero_tags_trivial)
{
    const auto stats = aloha_inventory(aloha_config{}).run(0, 1);
    EXPECT_TRUE(stats.complete());
    EXPECT_EQ(stats.slots_used, 0u);
}

TEST(aloha, validation)
{
    aloha_config cfg;
    cfg.min_q = 5;
    cfg.max_q = 3;
    EXPECT_THROW(aloha_inventory{cfg}, std::invalid_argument);
}

TEST(tdma, slot_duration_arithmetic)
{
    tdma_config cfg; // 10 us query and 1 us guard are fixed
    cfg.turnaround_s = 2e-6;
    cfg.frame_payload_bytes = 125; // 1000 bits
    cfg.overhead_bits = 0;
    cfg.phy_rate_bps = 1e6;
    tdma_scheduler scheduler(cfg);
    EXPECT_NEAR(scheduler.slot_duration_s(), 13e-6 + 1e-3, 1e-12);
}

TEST(tdma, per_tag_goodput_divides_by_population)
{
    tdma_scheduler scheduler{tdma_config{}};
    const auto one = scheduler.metrics(1);
    const auto ten = scheduler.metrics(10);
    EXPECT_NEAR(ten.per_tag_goodput_bps, one.per_tag_goodput_bps / 10.0, 1.0);
    EXPECT_NEAR(ten.aggregate_goodput_bps, one.aggregate_goodput_bps, 1.0);
}

// Channel utilization (payload airtime / total time) is the aggregate
// goodput as a fraction of the PHY rate.
double utilization(const tdma_config& cfg, std::size_t tags)
{
    return tdma_scheduler(cfg).metrics(tags).aggregate_goodput_bps / cfg.phy_rate_bps;
}

TEST(tdma, utilization_below_unity)
{
    const double u = utilization(tdma_config{}, 5);
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
}

TEST(tdma, larger_payload_improves_utilization)
{
    tdma_config small;
    small.frame_payload_bytes = 32;
    tdma_config large;
    large.frame_payload_bytes = 1024;
    EXPECT_GT(utilization(large, 1), utilization(small, 1));
}

TEST(arq, perfect_link_never_retransmits)
{
    const auto stats = stop_and_wait(100, 1.0, 3);
    EXPECT_EQ(stats.frames_delivered, 100u);
    EXPECT_EQ(stats.transmissions, 100u);
}

TEST(arq, delivery_tracks_success_probability)
{
    const auto stats = stop_and_wait(2000, 0.7, 5);
    // With 8 tries at p=0.7, delivery is essentially certain.
    EXPECT_GT(stats.delivery_ratio(), 0.999);
    // Mean transmissions per frame ~ 1/0.7.
    const double mean_tx =
        static_cast<double>(stats.transmissions) / static_cast<double>(stats.frames_offered);
    EXPECT_NEAR(mean_tx, 1.0 / 0.7, 0.08);
}

TEST(arq, gives_up_after_max_retries)
{
    const auto stats = stop_and_wait(5000, 0.2, 7);
    // Delivery probability = 1 - 0.8^8 = 0.832.
    ASSERT_EQ(stop_and_wait_tries, 8u);
    EXPECT_NEAR(stats.delivery_ratio(), 1.0 - std::pow(0.8, 8.0), 0.02);
}

TEST(arq, validation)
{
    EXPECT_THROW((void)stop_and_wait(10, 1.5, 1), std::invalid_argument);
    EXPECT_THROW((void)stop_and_wait(10, -0.5, 1), std::invalid_argument);
}

} // namespace
} // namespace mmtag::mac
