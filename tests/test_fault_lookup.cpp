// Fault lookup equivalence: fault_injector::at, lo_offset_hz and
// fault_schedule::active (windowed binary search) against a brute-force
// full scan of the event list, on seeded random schedules from both
// constructors and on a multi-tag plan timeline. Queries come in shuffled
// (non-monotone) order, with zero-length, boundary and horizon-long windows,
// and interleaved LO re-locks. With metrics attached, the per-kind counters
// must equal the reference counts, and kinds that never fire must stay out
// of the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/fault/fault_schedule.hpp"
#include "mmtag/fault/multi_tag_faults.hpp"
#include "mmtag/obs/metrics_registry.hpp"

namespace {

using mmtag::fault::fault_event;
using mmtag::fault::fault_injector;
using mmtag::fault::fault_kind;
using mmtag::fault::fault_schedule;
using mmtag::fault::impairment;

constexpr std::size_t kind_count = 5;

/// Brute-force reference: scans every event for every query.
struct reference {
    std::vector<fault_event> events;
    double lo_cleared_until_s = 0.0;
    std::array<std::uint64_t, kind_count> kind_hits{};
    std::uint64_t impaired_windows = 0;

    [[nodiscard]] double lo_offset_hz(double time_s) const
    {
        double offset = 0.0;
        for (const auto& e : events) {
            if (e.kind == fault_kind::lo_step && e.start_s <= time_s &&
                e.start_s > lo_cleared_until_s) {
                offset = e.magnitude;
            }
        }
        return offset;
    }

    impairment at(double start_s, double duration_s)
    {
        impairment out;
        double blockage_db = 0.0;
        double dropout_db = 0.0;
        for (const auto& e : events) {
            if (!(e.start_s < start_s + duration_s && e.start_s + e.duration_s > start_s)) {
                continue;
            }
            ++kind_hits[static_cast<std::size_t>(e.kind)];
            if (e.kind == fault_kind::blockage) blockage_db = std::max(blockage_db, e.magnitude);
            if (e.kind == fault_kind::carrier_dropout) dropout_db = std::max(dropout_db, e.magnitude);
            if (e.kind == fault_kind::interferer) {
                out.interferer_rel_db = std::max(out.interferer_rel_db, e.magnitude);
            }
            if (e.kind == fault_kind::brownout) out.tag_powered = false;
        }
        if (blockage_db > 0.0) out.tag_amplitude = std::pow(10.0, -blockage_db / 20.0);
        if (dropout_db > 0.0) out.carrier_amplitude = std::pow(10.0, -dropout_db / 20.0);
        out.lo_offset_hz = lo_offset_hz(start_s + duration_s);
        if (out.any()) ++impaired_windows;
        return out;
    }
};

std::vector<fault_event> active_events(const fault_schedule& schedule, double t0, double t1)
{
    std::vector<fault_event> out;
    schedule.visit_active(t0, t1, [&out](const fault_event& e) { out.push_back(e); });
    return out;
}

void expect_same(const impairment& got, const impairment& want, const std::string& where)
{
    EXPECT_EQ(got.tag_amplitude, want.tag_amplitude) << where;
    EXPECT_EQ(got.carrier_amplitude, want.carrier_amplitude) << where;
    EXPECT_EQ(got.lo_offset_hz, want.lo_offset_hz) << where;
    EXPECT_EQ(got.interferer_rel_db, want.interferer_rel_db) << where;
    EXPECT_EQ(got.tag_powered, want.tag_powered) << where;
}

/// Query windows over [-margin, horizon + margin]: random starts and
/// lengths (zero, sub-microsecond, typical, horizon-long), every event's
/// own edges, then shuffled so the queries run in non-monotone order.
std::vector<std::pair<double, double>> query_windows(const fault_schedule& schedule,
                                                     double horizon_s, std::mt19937_64& rng)
{
    std::uniform_real_distribution<double> start(-0.05 * horizon_s, 1.05 * horizon_s);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<std::pair<double, double>> windows;
    for (int i = 0; i < 3000; ++i) {
        const double u = unit(rng);
        double length = 0.0;
        if (u < 0.1) length = 0.0;
        else if (u < 0.2) length = 1e-9;
        else if (u < 0.9) length = unit(rng) * 4e-3;
        else length = unit(rng) * horizon_s;
        windows.emplace_back(start(rng), length);
    }
    windows.emplace_back(0.0, horizon_s);
    for (const auto& e : schedule.events()) {
        windows.emplace_back(e.start_s, 0.0);
        windows.emplace_back(e.start_s, e.duration_s);
        windows.emplace_back(e.end_s(), 1e-4);
        windows.emplace_back(e.start_s - 1e-4, 1e-4);
    }
    std::shuffle(windows.begin(), windows.end(), rng);
    return windows;
}

/// Runs every window through the injector (metrics attached) and the
/// reference, re-locking the LO at random points in both, and compares
/// impairments, active() lists and metric counters.
void check_equivalent(const fault_schedule& schedule, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    const double horizon_s = schedule.parameters().horizon_s;
    fault_injector injector(schedule);
    mmtag::obs::metrics_registry metrics;
    injector.attach_metrics(&metrics);
    reference ref;
    ref.events = schedule.events();
    std::uniform_real_distribution<double> unit(0.0, 1.0);

    std::size_t i = 0;
    for (const auto& [start_s, duration_s] : query_windows(schedule, horizon_s, rng)) {
        const std::string where = "seed " + std::to_string(seed) + " query " +
                                  std::to_string(i++) + " [" + std::to_string(start_s) +
                                  ", +" + std::to_string(duration_s) + ")";
        expect_same(injector.at(start_s, duration_s), ref.at(start_s, duration_s), where);
        EXPECT_EQ(injector.lo_offset_hz(start_s), ref.lo_offset_hz(start_s)) << where;

        std::vector<fault_event> want;
        for (const auto& e : ref.events) {
            if (e.overlaps(start_s, start_s + duration_s)) want.push_back(e);
        }
        const auto got = active_events(schedule, start_s, start_s + duration_s);
        ASSERT_EQ(got.size(), want.size()) << where;
        for (std::size_t k = 0; k < got.size(); ++k) {
            EXPECT_EQ(got[k].start_s, want[k].start_s) << where;
            EXPECT_EQ(got[k].kind, want[k].kind) << where;
        }

        if (unit(rng) < 0.01) {
            // Half the re-locks land exactly on an event's start: a step
            // starting at the re-lock instant counts as cleared.
            const double relock_s = !ref.events.empty() && unit(rng) < 0.5
                                        ? ref.events[rng() % ref.events.size()].start_s
                                        : unit(rng) * horizon_s;
            injector.clear_lo_steps(relock_s);
            ref.lo_cleared_until_s = std::max(ref.lo_cleared_until_s, relock_s);
        }
    }

    for (std::size_t kind = 0; kind < kind_count; ++kind) {
        const std::string name =
            std::string("fault/") + mmtag::fault::fault_kind_name(static_cast<fault_kind>(kind));
        const auto* counter = metrics.find_counter(name);
        if (ref.kind_hits[kind] == 0) {
            EXPECT_EQ(counter, nullptr) << name << " appeared without ever firing";
        } else {
            ASSERT_NE(counter, nullptr) << name;
            EXPECT_EQ(counter->value(), ref.kind_hits[kind]) << name;
        }
    }
    const auto* impaired = metrics.find_counter("fault/impaired_windows");
    if (ref.impaired_windows == 0) {
        EXPECT_EQ(impaired, nullptr);
    } else {
        ASSERT_NE(impaired, nullptr);
        EXPECT_EQ(impaired->value(), ref.impaired_windows);
    }
}

fault_event make_event(fault_kind kind, double start_s, double duration_s, double magnitude)
{
    fault_event e;
    e.kind = kind;
    e.start_s = start_s;
    e.duration_s = duration_s;
    e.magnitude = magnitude;
    return e;
}

TEST(fault_lookup, poisson_schedules_match_a_full_scan)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        fault_schedule::config cfg;
        cfg.horizon_s = 0.2;
        // Dense enough that same-kind and cross-kind events overlap often.
        cfg.event_rate_hz = seed % 2 == 0 ? 2000.0 : 300.0;
        cfg.max_duration_s = seed % 3 == 0 ? 40e-3 : 10e-3;
        const fault_schedule schedule(cfg, seed);
        ASSERT_GT(schedule.events().size(), 20u);
        ASSERT_TRUE(schedule.has_lo_steps());
        check_equivalent(schedule, seed);
    }
}

TEST(fault_lookup, explicit_schedules_match_a_full_scan)
{
    for (std::uint64_t seed = 11; seed <= 16; ++seed) {
        std::mt19937_64 rng(seed);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        const double horizon_s = 0.5;
        std::vector<fault_event> events;
        // A horizon-long interferer under everything else.
        events.push_back(make_event(fault_kind::interferer, 0.0, horizon_s, 14.0));
        for (int i = 0; i < 400; ++i) {
            const auto kind = static_cast<fault_kind>(rng() % kind_count);
            double duration = unit(rng) * 8e-3;
            if (i % 10 == 0) duration = 0.0; // dropped unless lo_step
            if (i % 37 == 0) duration = unit(rng) * 0.1;
            events.push_back(make_event(kind, unit(rng) * horizon_s * 0.99, duration,
                                        5.0 + 30.0 * unit(rng)));
        }
        const fault_schedule schedule(horizon_s, events);
        ASSERT_TRUE(schedule.has_lo_steps());
        check_equivalent(schedule, seed);
    }
}

TEST(fault_lookup, schedules_without_lo_steps_report_no_offset)
{
    const fault_schedule schedule(
        1.0, {make_event(fault_kind::blockage, 0.1, 0.2, 12.0),
              make_event(fault_kind::brownout, 0.5, 0.1, 0.0)});
    EXPECT_FALSE(schedule.has_lo_steps());
    check_equivalent(schedule, 21);
    const fault_schedule empty(1.0, {});
    EXPECT_TRUE(active_events(empty, 0.0, 1.0).empty());
    check_equivalent(empty, 22);
}

TEST(fault_lookup, multi_tag_plan_timelines_match_a_full_scan)
{
    mmtag::fault::multi_tag_config cfg;
    cfg.horizon_s = 4.0; // ~200 brownouts and background events per tag
    const mmtag::fault::multi_tag_plan plan(cfg, 12, 6, 77);
    ASSERT_GT(plan.per_tag()[0].events().size(), 100u);
    check_equivalent(plan.shared(), 31);
    for (std::size_t tag = 0; tag < 6; ++tag) check_equivalent(plan.per_tag()[tag], 40 + tag);
}

} // namespace
