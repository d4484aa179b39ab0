// Deployment generators for the scale-out layer: seeded placement is
// reproducible bit for bit, every layout keeps tags on the floor, cells
// partition the population by nearest AP, and the static SINR model reduces
// to the plain link budget when a single AP removes all interference.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "mmtag/core/config.hpp"
#include "mmtag/core/link_budget.hpp"
#include "mmtag/scale/topology.hpp"

namespace {

using namespace mmtag;
using scale::deployment;
using scale::layout_kind;
using scale::make_deployment;
using scale::topology_config;

topology_config base_config(layout_kind layout, std::size_t tags, std::size_t aps)
{
    topology_config cfg;
    cfg.layout = layout;
    cfg.tag_count = tags;
    cfg.ap_count = aps;
    return cfg;
}

TEST(ScaleTopology, ParsesLayoutNames)
{
    EXPECT_EQ(scale::parse_layout("grid"), layout_kind::warehouse_grid);
    EXPECT_EQ(scale::parse_layout("poisson"), layout_kind::poisson_disc);
    EXPECT_EQ(scale::parse_layout("clustered"), layout_kind::clustered);
    EXPECT_THROW((void)scale::parse_layout("ring"), std::invalid_argument);
    EXPECT_STREQ(scale::layout_name(layout_kind::poisson_disc), "poisson");
}

TEST(ScaleTopology, PlacementIsDeterministic)
{
    const auto scenario = core::fast_scenario();
    for (const auto layout : {layout_kind::warehouse_grid, layout_kind::poisson_disc,
                              layout_kind::clustered}) {
        const auto cfg = base_config(layout, 60, 3);
        const deployment a = make_deployment(cfg, scenario);
        const deployment b = make_deployment(cfg, scenario);
        ASSERT_EQ(a.tags.size(), b.tags.size());
        for (std::size_t i = 0; i < a.tags.size(); ++i) {
            EXPECT_EQ(a.tags[i].x_m, b.tags[i].x_m);
            EXPECT_EQ(a.tags[i].y_m, b.tags[i].y_m);
            EXPECT_EQ(a.tags[i].sinr_db, b.tags[i].sinr_db);
        }
    }
}

TEST(ScaleTopology, SeedChangesPlacement)
{
    const auto scenario = core::fast_scenario();
    auto cfg = base_config(layout_kind::poisson_disc, 20, 1);
    const deployment a = make_deployment(cfg, scenario);
    cfg.seed ^= 1;
    const deployment b = make_deployment(cfg, scenario);
    bool any_moved = false;
    for (std::size_t i = 0; i < a.tags.size(); ++i) {
        any_moved = any_moved || a.tags[i].x_m != b.tags[i].x_m;
    }
    EXPECT_TRUE(any_moved);
}

TEST(ScaleTopology, EveryLayoutStaysOnTheFloor)
{
    const auto scenario = core::fast_scenario();
    for (const auto layout : {layout_kind::warehouse_grid, layout_kind::poisson_disc,
                              layout_kind::clustered}) {
        const auto cfg = base_config(layout, 200, 4);
        const deployment topo = make_deployment(cfg, scenario);
        for (const auto& tag : topo.tags) {
            EXPECT_GE(tag.x_m, 0.0);
            EXPECT_LE(tag.x_m, cfg.floor_m);
            EXPECT_GE(tag.y_m, 0.0);
            EXPECT_LE(tag.y_m, cfg.floor_m);
        }
    }
}

TEST(ScaleTopology, CellsPartitionTagsByNearestAp)
{
    const auto scenario = core::fast_scenario();
    const auto cfg = base_config(layout_kind::warehouse_grid, 120, 4);
    const deployment topo = make_deployment(cfg, scenario);
    ASSERT_EQ(topo.cells.size(), 4u);
    std::size_t total = 0;
    for (std::size_t a = 0; a < topo.cells.size(); ++a) {
        total += topo.cells[a].size();
        for (const std::size_t t : topo.cells[a]) {
            EXPECT_EQ(topo.tags[t].ap, a);
            // The serving AP really is the nearest one.
            for (std::size_t other = 0; other < topo.aps.size(); ++other) {
                const double dx = topo.aps[other].x_m - topo.tags[t].x_m;
                const double dy = topo.aps[other].y_m - topo.tags[t].y_m;
                const double dz = topo.aps[other].z_m;
                const double d = std::sqrt(dx * dx + dy * dy + dz * dz);
                EXPECT_LE(topo.tags[t].distance_m, d + 1e-12);
            }
        }
    }
    EXPECT_EQ(total, cfg.tag_count);
}

TEST(ScaleTopology, SingleApSinrMatchesLinkBudget)
{
    const auto scenario = core::fast_scenario();
    const auto cfg = base_config(layout_kind::warehouse_grid, 16, 1);
    const deployment topo = make_deployment(cfg, scenario);
    const core::link_budget budget(scenario);
    for (const auto& tag : topo.tags) {
        const auto point = budget.at(tag.distance_m);
        const double snr_db = point.received_at_ap_dbm - point.noise_floor_dbm;
        EXPECT_NEAR(tag.sinr_db, snr_db, 1e-9);
    }
}

/// FNV-1a over the bits of every tag's sinr_db, in tag order.
std::uint64_t sinr_hash(const deployment& topo)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const auto& tag : topo.tags) {
        std::uint64_t bits = std::bit_cast<std::uint64_t>(tag.sinr_db);
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= bits & 0xffU;
            hash *= 0x100000001b3ULL;
            bits >>= 8;
        }
    }
    return hash;
}

TEST(ScaleTopology, SinrIsPinnedForEveryLayout)
{
    // Pinned while every budget call built a whole backscatter_channel: the
    // link budget's distance-invariant terms may be hoisted, but no SINR
    // bit may move.
    const auto scenario = core::fast_scenario();
    const std::pair<layout_kind, std::uint64_t> pinned[] = {
        {layout_kind::warehouse_grid, 0x9f3b2a9ccceb4683ULL},
        {layout_kind::poisson_disc, 0x6ca0620e0f6cc01bULL},
        {layout_kind::clustered, 0x75ae0a903a85f82fULL},
    };
    for (const auto& [layout, hash] : pinned) {
        const deployment topo = make_deployment(base_config(layout, 3000, 9), scenario);
        EXPECT_EQ(sinr_hash(topo), hash)
            << scale::layout_name(layout) << " 0x" << std::hex << sinr_hash(topo);
    }
}

TEST(ScaleTopology, InterferenceOnlyLowersSinr)
{
    const auto scenario = core::fast_scenario();
    auto quiet = base_config(layout_kind::warehouse_grid, 80, 4);
    auto loud = quiet;
    loud.ap_suppression_db = 30.0; // much weaker carrier cancellation
    const deployment a = make_deployment(quiet, scenario);
    const deployment b = make_deployment(loud, scenario);
    for (std::size_t i = 0; i < a.tags.size(); ++i) {
        EXPECT_LT(b.tags[i].sinr_db, a.tags[i].sinr_db);
    }
}

TEST(ScaleTopology, SinrDecreasesWithDistanceWithinCell)
{
    const auto scenario = core::fast_scenario();
    const auto cfg = base_config(layout_kind::poisson_disc, 100, 2);
    const deployment topo = make_deployment(cfg, scenario);
    // Interference is per AP, so within a cell SINR must track distance.
    for (const auto& cell : topo.cells) {
        for (std::size_t i = 0; i < cell.size(); ++i) {
            for (std::size_t j = i + 1; j < cell.size(); ++j) {
                const auto& u = topo.tags[cell[i]];
                const auto& v = topo.tags[cell[j]];
                if (u.distance_m + 1e-9 < v.distance_m) {
                    EXPECT_GT(u.sinr_db, v.sinr_db);
                } else if (v.distance_m + 1e-9 < u.distance_m) {
                    EXPECT_GT(v.sinr_db, u.sinr_db);
                }
            }
        }
    }
}

TEST(ScaleTopology, RejectsDegenerateConfigs)
{
    const auto scenario = core::fast_scenario();
    auto cfg = base_config(layout_kind::warehouse_grid, 0, 1);
    EXPECT_THROW((void)make_deployment(cfg, scenario), std::invalid_argument);
    cfg.tag_count = 10;
    cfg.ap_count = 0;
    EXPECT_THROW((void)make_deployment(cfg, scenario), std::invalid_argument);
    cfg.ap_count = 1;
    cfg.floor_m = 0.0;
    EXPECT_THROW((void)make_deployment(cfg, scenario), std::invalid_argument);
}

} // namespace
