// Calibrated PHY table: the calibration cross-check re-runs the
// sample-accurate simulator at grid points and demands agreement with the
// interpolated curve, monotonicity is enforced and fail-loud on load, and
// the disk cache covers both the hit and the miss/stale path.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/common.hpp"
#include "mmtag/core/link_budget.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/runtime/json_io.hpp"
#include "mmtag/scale/phy_table.hpp"

namespace {

using namespace mmtag;
using scale::phy_table;
using scale::phy_table_config;

/// Coarse but statistically meaningful calibration grid shared by every
/// test in this file (generated once): 8 SINR points x 48 frames.
phy_table_config test_config()
{
    phy_table_config cfg;
    cfg.sinr_step_db = 4.0;
    cfg.frames_per_point = 48;
    return cfg;
}

const phy_table& shared_table()
{
    static const phy_table table = phy_table::generate(test_config(), 1);
    return table;
}

TEST(ScalePhyTable, PavaForcesNonIncreasing)
{
    std::vector<double> values{1.0, 0.8, 0.9, 0.2, 0.3, 0.0};
    scale::enforce_non_increasing(values);
    for (std::size_t i = 1; i < values.size(); ++i) {
        EXPECT_LE(values[i], values[i - 1] + 1e-12);
    }
    // PAVA is a least-squares fit: already-monotone stretches are untouched.
    std::vector<double> mono{1.0, 0.5, 0.5, 0.1};
    auto copy = mono;
    scale::enforce_non_increasing(copy);
    EXPECT_EQ(copy, mono);
}

TEST(ScalePhyTable, GeneratedCurvesAreMonotoneAndBounded)
{
    const auto& table = shared_table();
    ASSERT_EQ(table.curves().size(), ap::rate_table().size());
    for (const auto& curve : table.curves()) {
        ASSERT_EQ(curve.per.size(), curve.sinr_db.size());
        for (std::size_t i = 0; i < curve.per.size(); ++i) {
            EXPECT_GE(curve.per[i], 0.0);
            EXPECT_LE(curve.per[i], 1.0);
            if (i > 0) {
                EXPECT_LE(curve.per[i], curve.per[i - 1] + 1e-12);
            }
        }
        // A useful curve must actually fall: near-certain loss at the low
        // end, mostly-delivered at the high end (the densest MCS is still
        // marginal at the top of the grid, so only < 0.5 is guaranteed).
        EXPECT_GT(curve.per.front(), 0.9);
        EXPECT_LT(curve.per.back(), 0.5);
    }
}

TEST(ScalePhyTable, InterpolationClampsAndBlends)
{
    const auto& table = shared_table();
    const auto& curve = table.curves()[0];
    EXPECT_DOUBLE_EQ(table.per(0, curve.sinr_db.front() - 10.0), curve.per.front());
    EXPECT_DOUBLE_EQ(table.per(0, curve.sinr_db.back() + 10.0), curve.per.back());
    const double mid = 0.5 * (curve.sinr_db[0] + curve.sinr_db[1]);
    EXPECT_DOUBLE_EQ(table.per(0, mid), 0.5 * (curve.per[0] + curve.per[1]));
    EXPECT_THROW((void)table.per(table.curves().size(), 10.0), simulation_error);
}

// The calibration cross-check the issue asks for: at three (MCS, SINR)
// points, a fresh sample-accurate run (independent seed) must agree with
// the interpolated PER within 0.25 absolute — three binomial sigma at 48
// frames plus the isotonic-fit adjustment. A mis-mapped distance, swapped
// curve, or broken interpolation shows up as an error near 1.0.
TEST(ScalePhyTable, CalibrationCrossCheck)
{
    const auto cfg = test_config();
    const auto& table = shared_table();
    const core::link_budget budget(cfg.scenario);
    const auto& ladder = ap::rate_table();

    struct point {
        std::size_t mcs;
        double sinr_db;
    };
    // One robust MCS near its waterfall, one mid-ladder, one dense.
    const point points[] = {{0, 6.0}, {2, 10.0}, {4, 22.0}};
    for (const auto& p : points) {
        core::system_config scenario = cfg.scenario;
        scenario.distance_m = budget.max_range_m(p.sinr_db);
        ASSERT_GT(scenario.distance_m, 0.0);
        scenario.seed = 0xf2e5a; // independent of the calibration seed
        core::link_simulator sim(scenario);
        sim.set_rate(ladder[p.mcs]);
        const auto report = sim.run_trials(cfg.frames_per_point, cfg.payload_bytes);
        EXPECT_NEAR(table.per(p.mcs, p.sinr_db), report.per, 0.25)
            << "mcs " << p.mcs << " at " << p.sinr_db << " dB";
    }
}

TEST(ScalePhyTable, DefaultFingerprintIsPinned)
{
    // The fingerprint hashes the rate ladder by name along with the scenario
    // and grid; a change orphans every cached table, so it must be deliberate.
    EXPECT_EQ(phy_table::fingerprint_of(phy_table_config{}), "623fc0eb65741a33");
}

TEST(ScalePhyTable, JsonRoundTripPreservesCurves)
{
    const auto& table = shared_table();
    const auto doc = table.to_json();
    const phy_table back = phy_table::from_json(doc, test_config());
    EXPECT_EQ(back.fingerprint(), table.fingerprint());
    ASSERT_EQ(back.curves().size(), table.curves().size());
    for (std::size_t m = 0; m < table.curves().size(); ++m) {
        EXPECT_EQ(back.curves()[m].per, table.curves()[m].per);
        EXPECT_EQ(back.curves()[m].sinr_db, table.curves()[m].sinr_db);
        EXPECT_EQ(back.curves()[m].frames, table.curves()[m].frames);
    }
    EXPECT_EQ(back.to_json().dump(), doc.dump());
}

TEST(ScalePhyTable, LoaderFailsLoudOnTamperedTables)
{
    using runtime::json_value;
    const auto& table = shared_table();
    const auto doc = table.to_json();
    const auto clone = [](const json_value& v) { return *runtime::parse_json(v.dump()); };

    const auto cfg = test_config();

    // Wrong schema.
    EXPECT_THROW(
        (void)phy_table::from_json(runtime::schema_object("mmtag.other/1"), cfg),
        simulation_error);

    // Fingerprint that no longer matches the requested build parameters.
    {
        std::string tampered = doc.dump();
        const auto pos = tampered.find(table.fingerprint());
        ASSERT_NE(pos, std::string::npos);
        tampered[pos] = tampered[pos] == '0' ? '1' : '0';
        EXPECT_THROW((void)phy_table::from_json(*runtime::parse_json(tampered), cfg),
                     simulation_error);
    }

    // Stale cache: the document is self-consistent but was built for a
    // different config (more frames per point).
    {
        auto stale_cfg = cfg;
        stale_cfg.frames_per_point += 1;
        EXPECT_THROW((void)phy_table::from_json(doc, stale_cfg), simulation_error);
    }

    // Non-monotone curve: rebuild the document with the first curve's last
    // PER raised back to 1.0 (its neighbours are near 0).
    {
        auto broken = runtime::schema_object("mmtag.phy_table/1");
        broken.set("fingerprint", clone(*doc.find("fingerprint")));
        broken.set("params", clone(*doc.find("params")));
        const json_value* curves_in = doc.find("curves");
        ASSERT_NE(curves_in, nullptr);
        auto curves_out = json_value::array();
        for (std::size_t m = 0; m < curves_in->size(); ++m) {
            const json_value& entry_in = curves_in->at(m);
            auto entry = json_value::object();
            entry.set("modulation", clone(*entry_in.find("modulation")));
            entry.set("fec", clone(*entry_in.find("fec")));
            entry.set("sinr_db", clone(*entry_in.find("sinr_db")));
            auto per = json_value::array();
            const json_value* per_in = entry_in.find("per");
            for (std::size_t i = 0; i < per_in->size(); ++i) {
                const bool tamper = m == 0 && i + 1 == per_in->size();
                per.push(json_value::number(tamper ? 1.0
                                                   : per_in->at(i).as_number()));
            }
            entry.set("per", std::move(per));
            entry.set("frames", clone(*entry_in.find("frames")));
            curves_out.push(std::move(entry));
        }
        broken.set("curves", std::move(curves_out));
        EXPECT_THROW((void)phy_table::from_json(broken, cfg), simulation_error);
    }
}

TEST(ScalePhyTable, CacheMissThenHit)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "mmtag_phy_cache_test";
    fs::remove_all(dir);

    // A deliberately cheap grid: the cache contract is what's under test
    // here, not the statistics.
    auto cfg = test_config();
    cfg.frames_per_point = 8;
    // The first load_or_generate must miss (empty dir), generate, persist...
    const auto miss = phy_table::load_or_generate(cfg, 1, dir.string());
    EXPECT_FALSE(miss.cache_hit);
    EXPECT_TRUE(fs::exists(miss.path));

    // ...and the second must hit and agree bit for bit.
    const auto hit = phy_table::load_or_generate(cfg, 1, dir.string());
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.path, miss.path);
    EXPECT_EQ(hit.table.to_json().dump(), miss.table.to_json().dump());

    // A stale/corrupt file at the expected path is regenerated, loudly.
    ASSERT_TRUE(runtime::write_text_file(miss.path, "{\"schema\": \"corrupt\"}"));
    const auto stale = phy_table::load_or_generate(cfg, 1, dir.string());
    EXPECT_FALSE(stale.cache_hit);
    EXPECT_EQ(stale.table.to_json().dump(), miss.table.to_json().dump());
    fs::remove_all(dir);
}

} // namespace
