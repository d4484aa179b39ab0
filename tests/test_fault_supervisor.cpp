// Fault schedule / injector semantics and the AP link supervisor state
// machine, exercised through synthetic drivers (no RF) so they run fast.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "mmtag/ap/link_supervisor.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/core/multitag_simulator.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/mac/arq.hpp"
#include "mmtag/phy/bitio.hpp"

using namespace mmtag;

namespace {

std::vector<fault::fault_event> active_events(const fault::fault_schedule& schedule, double t0,
                                              double t1)
{
    std::vector<fault::fault_event> out;
    schedule.visit_active(t0, t1, [&out](const fault::fault_event& e) { out.push_back(e); });
    return out;
}

fault::fault_schedule::config busy_schedule()
{
    fault::fault_schedule::config cfg;
    cfg.horizon_s = 50e-3;
    cfg.event_rate_hz = 400.0;
    return cfg;
}

/// Synthetic link: every attempt costs fixed airtime and fails while the
/// clock is inside [outage_start, outage_end). A persistent lock loss at
/// `lock_lost_at_s` (the scripted analogue of an LO step) keeps the link
/// down until someone re-runs acquisition.
struct scripted_link {
    double now_s = 0.0;
    double outage_start_s = 0.0;
    double outage_end_s = 0.0;
    double lock_lost_at_s = std::numeric_limits<double>::infinity();
    double data_airtime_s = 120e-6;
    double probe_airtime_s = 40e-6;
    double reacquisition_s = 0.5e-3;
    std::size_t reacquisitions = 0;

    [[nodiscard]] bool up() const
    {
        if (now_s >= lock_lost_at_s) return false;
        return now_s < outage_start_s || now_s >= outage_end_s;
    }

    ap::link_driver driver()
    {
        ap::link_driver d;
        d.transmit = [this](const ap::rate_option&) {
            const bool ok = up();
            now_s += data_airtime_s;
            return ap::attempt_result{ok, ok ? 20.0 : -100.0, data_airtime_s};
        };
        d.probe = [this](const ap::rate_option&) {
            const bool ok = up();
            now_s += probe_airtime_s;
            return ap::attempt_result{ok, ok ? 20.0 : -100.0, probe_airtime_s};
        };
        d.wait = [this](double wait_s) { now_s += wait_s; };
        d.reacquire = [this] {
            ++reacquisitions;
            now_s += reacquisition_s;
            lock_lost_at_s = std::numeric_limits<double>::infinity();
        };
        d.now = [this] { return now_s; };
        return d;
    }
};

} // namespace

TEST(fault_schedule, same_seed_bit_identical_events)
{
    const auto cfg = busy_schedule();
    const fault::fault_schedule a(cfg, 77);
    const fault::fault_schedule b(cfg, 77);
    ASSERT_EQ(a.events().size(), b.events().size());
    ASSERT_FALSE(a.events().empty());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_DOUBLE_EQ(a.events()[i].start_s, b.events()[i].start_s);
        EXPECT_DOUBLE_EQ(a.events()[i].duration_s, b.events()[i].duration_s);
        EXPECT_DOUBLE_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
    }
}

TEST(fault_schedule, different_seeds_differ)
{
    const auto cfg = busy_schedule();
    const fault::fault_schedule a(cfg, 77);
    const fault::fault_schedule b(cfg, 78);
    bool any_difference = a.events().size() != b.events().size();
    for (std::size_t i = 0; !any_difference && i < a.events().size(); ++i) {
        any_difference = a.events()[i].start_s != b.events()[i].start_s;
    }
    EXPECT_TRUE(any_difference);
}

TEST(fault_schedule, events_sorted_clamped_and_inside_horizon)
{
    const auto cfg = busy_schedule();
    const fault::fault_schedule schedule(cfg, 5);
    double previous = -1.0;
    for (const auto& event : schedule.events()) {
        EXPECT_GE(event.start_s, previous);
        previous = event.start_s;
        EXPECT_LT(event.start_s, cfg.horizon_s);
        EXPECT_GE(event.duration_s, cfg.min_duration_s);
        EXPECT_LE(event.duration_s, cfg.max_duration_s);
        if (event.kind == fault::fault_kind::blockage) {
            EXPECT_GE(event.magnitude, 8.0); // dB
            EXPECT_LE(event.magnitude, 25.0);
        }
        if (event.kind == fault::fault_kind::lo_step) {
            EXPECT_GE(event.magnitude, 50e3); // Hz
            EXPECT_LE(event.magnitude, 400e3);
        }
    }
}

TEST(fault_schedule, rejects_non_finite_and_runaway_configs)
{
    // NaN fails every ordered comparison, so each check must be written to
    // reject it. The NaN horizon goes first and is asserted: without the
    // checks, the infinite and runaway rates below append events until
    // memory runs out.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    auto cfg = busy_schedule();
    cfg.horizon_s = nan;
    ASSERT_THROW(fault::fault_schedule(cfg, 1), std::invalid_argument);
    cfg.horizon_s = inf;
    EXPECT_THROW(fault::fault_schedule(cfg, 1), std::invalid_argument);

    for (const double rate : {nan, inf, -inf, 1e9}) {
        cfg = busy_schedule();
        cfg.event_rate_hz = rate;
        EXPECT_THROW(fault::fault_schedule(cfg, 1), std::invalid_argument) << rate;
    }
    // The cap is on rate x horizon: 1e6 expected events is the most allowed.
    cfg = busy_schedule();
    cfg.event_rate_hz = 1e6 / cfg.horizon_s * 1.001;
    EXPECT_THROW(fault::fault_schedule(cfg, 1), std::invalid_argument);

    for (const double mean : {nan, inf, 0.0}) {
        cfg = busy_schedule();
        cfg.mean_duration_s = mean;
        EXPECT_THROW(fault::fault_schedule(cfg, 1), std::invalid_argument) << mean;
    }
    cfg = busy_schedule();
    cfg.min_duration_s = nan;
    EXPECT_THROW(fault::fault_schedule(cfg, 1), std::invalid_argument);
    cfg = busy_schedule();
    cfg.blockage_weight = nan;
    EXPECT_THROW(fault::fault_schedule(cfg, 1), std::invalid_argument);

    EXPECT_THROW(fault::fault_schedule(nan, {}), std::invalid_argument);
    EXPECT_THROW(fault::fault_schedule(inf, {}), std::invalid_argument);
}

TEST(fault_schedule, kind_counts_sum_to_total_and_active_filters)
{
    const fault::fault_schedule schedule(busy_schedule(), 9);
    std::size_t total = 0;
    for (const auto kind :
         {fault::fault_kind::blockage, fault::fault_kind::carrier_dropout,
          fault::fault_kind::lo_step, fault::fault_kind::interferer,
          fault::fault_kind::brownout}) {
        total += schedule.count(kind);
    }
    EXPECT_EQ(total, schedule.events().size());

    ASSERT_FALSE(schedule.events().empty());
    const auto& first = schedule.events().front();
    const auto hits = active_events(schedule, first.start_s, first.end_s());
    ASSERT_FALSE(hits.empty());
    for (const auto& event : hits) {
        EXPECT_TRUE(event.overlaps(first.start_s, first.end_s()));
    }
    EXPECT_TRUE(active_events(schedule, 1e6, 1e6 + 1.0).empty());
}

TEST(fault_injector, clean_window_reports_no_impairment)
{
    fault::fault_schedule::config cfg = busy_schedule();
    cfg.event_rate_hz = 0.0;
    const fault::fault_injector injector{fault::fault_schedule(cfg, 1)};
    const auto impairment = injector.at(10e-3, 1e-3);
    EXPECT_FALSE(impairment.any());
    EXPECT_DOUBLE_EQ(impairment.tag_amplitude, 1.0);
    EXPECT_DOUBLE_EQ(impairment.carrier_amplitude, 1.0);
    EXPECT_TRUE(impairment.tag_powered);
    EXPECT_FALSE(impairment.interferer_active());
}

TEST(fault_injector, overlapping_events_impair_the_window)
{
    const fault::fault_schedule schedule(busy_schedule(), 9);
    const fault::fault_injector injector{schedule};
    for (const auto& event : schedule.events()) {
        const auto impairment = injector.at(event.start_s, event.duration_s);
        EXPECT_TRUE(impairment.any());
        switch (event.kind) {
        case fault::fault_kind::blockage:
            EXPECT_LT(impairment.tag_amplitude, 1.0);
            break;
        case fault::fault_kind::carrier_dropout:
            EXPECT_LT(impairment.carrier_amplitude, 1.0);
            break;
        case fault::fault_kind::lo_step:
            EXPECT_NE(impairment.lo_offset_hz, 0.0);
            break;
        case fault::fault_kind::interferer:
            EXPECT_TRUE(impairment.interferer_active());
            break;
        case fault::fault_kind::brownout:
            EXPECT_FALSE(impairment.tag_powered);
            break;
        }
    }
}

TEST(fault_injector, lo_step_persists_until_cleared)
{
    fault::fault_schedule::config cfg = busy_schedule();
    cfg.blockage_weight = 0.0;
    cfg.dropout_weight = 0.0;
    cfg.interferer_weight = 0.0;
    cfg.brownout_weight = 0.0; // LO steps only
    fault::fault_injector injector{fault::fault_schedule(cfg, 31)};
    const auto& events = injector.schedule().events();
    ASSERT_FALSE(events.empty());
    const auto& first = events.front();
    const auto& last = events.back();

    EXPECT_DOUBLE_EQ(injector.lo_offset_hz(first.start_s - 1e-6), 0.0);
    EXPECT_NE(injector.lo_offset_hz(first.start_s), 0.0);

    // The offset holds far beyond the last event's nominal duration: nothing
    // un-detunes a synthesizer except re-running acquisition. (The latest
    // step with start <= t governs, so probe past the end of the schedule.)
    const double probe_at = last.end_s() + 20e-3;
    EXPECT_EQ(injector.lo_offset_hz(probe_at), injector.lo_offset_hz(last.start_s));
    EXPECT_NE(injector.lo_offset_hz(probe_at), 0.0);

    // Reacquisition mid-schedule clears every step so far, and a later step
    // re-detunes after the clear.
    const double cleared_at = first.end_s();
    injector.clear_lo_steps(cleared_at);
    EXPECT_DOUBLE_EQ(injector.lo_offset_hz(cleared_at), 0.0);
    for (const auto& event : events) {
        if (event.start_s > cleared_at) {
            EXPECT_NE(injector.lo_offset_hz(event.start_s), 0.0);
            break;
        }
    }

    // Clearing at the very end silences the whole schedule.
    injector.clear_lo_steps(probe_at);
    EXPECT_DOUBLE_EQ(injector.lo_offset_hz(probe_at), 0.0);
}

TEST(link_supervisor, declares_outage_after_streak_and_recovers)
{
    ap::link_supervisor supervisor(ap::rate_table().back());
    EXPECT_EQ(supervisor.state(), ap::supervisor_state::nominal);

    ASSERT_EQ(ap::link_supervisor::outage_streak, 3u);
    supervisor.record(false, -100.0, 1e-3);
    EXPECT_EQ(supervisor.state(), ap::supervisor_state::alert);
    supervisor.record(false, -100.0, 2e-3);
    EXPECT_EQ(supervisor.state(), ap::supervisor_state::alert);
    // Pre-outage attempts go out immediately at the current rate.
    EXPECT_DOUBLE_EQ(supervisor.next_attempt().wait_s, 0.0);
    EXPECT_FALSE(supervisor.next_attempt().probe);

    supervisor.record(false, -100.0, 3e-3);
    EXPECT_EQ(supervisor.state(), ap::supervisor_state::outage);
    EXPECT_EQ(supervisor.metrics().outages, 1u);
    EXPECT_DOUBLE_EQ(supervisor.metrics().detect_total_s, 2e-3);

    // Outage plan: robust-rate probe with backoff.
    const auto plan = supervisor.next_attempt();
    EXPECT_TRUE(plan.probe);
    EXPECT_EQ(plan.rate.scheme, ap::rate_table().front().scheme);
    EXPECT_DOUBLE_EQ(plan.wait_s, ap::link_supervisor::initial_backoff_s);

    supervisor.record(true, 25.0, 4e-3, /*was_probe=*/true);
    EXPECT_EQ(supervisor.state(), ap::supervisor_state::nominal);
    EXPECT_EQ(supervisor.metrics().recoveries, 1u);
    EXPECT_DOUBLE_EQ(supervisor.metrics().recover_total_s, 1e-3);
    EXPECT_EQ(supervisor.metrics().probes, 1u);
    EXPECT_EQ(supervisor.metrics().transmissions, 3u);
}

TEST(link_supervisor, backoff_ladder_counts_from_declaration)
{
    ap::link_supervisor supervisor(ap::rate_table().back());
    double t = 0.0;
    for (std::size_t i = 0; i < ap::link_supervisor::outage_streak; ++i) {
        supervisor.record(false, -100.0, t += 1e-4);
    }
    // First outage probe waits the initial backoff, then doubles up to the cap.
    EXPECT_DOUBLE_EQ(supervisor.next_attempt().wait_s, 80e-6);
    supervisor.record(false, -100.0, t += 1e-4);
    EXPECT_DOUBLE_EQ(supervisor.next_attempt().wait_s, 160e-6);
    supervisor.record(false, -100.0, t += 1e-4);
    EXPECT_DOUBLE_EQ(supervisor.next_attempt().wait_s, 320e-6);
    supervisor.record(false, -100.0, t += 1e-4);
    EXPECT_DOUBLE_EQ(supervisor.next_attempt().wait_s, 500e-6); // 640 us capped
    supervisor.record(false, -100.0, t += 1e-4);
    EXPECT_DOUBLE_EQ(supervisor.next_attempt().wait_s, 500e-6);
}

TEST(link_supervisor, watchdog_requests_reacquisition_after_probe_budget)
{
    ap::link_supervisor supervisor(ap::rate_table().back());
    double t = 0.0;
    for (std::size_t i = 0; i < ap::link_supervisor::outage_streak; ++i) {
        supervisor.record(false, -100.0, t += 1e-4);
    }
    for (std::size_t probe = 0; probe < ap::link_supervisor::watchdog_probes; ++probe) {
        EXPECT_FALSE(supervisor.next_attempt().reacquire);
        supervisor.record(false, -100.0, t += 1e-4);
    }
    EXPECT_TRUE(supervisor.next_attempt().reacquire);
    supervisor.note_reacquisition(t);
    EXPECT_FALSE(supervisor.next_attempt().reacquire); // budget reset
    EXPECT_EQ(supervisor.metrics().reacquisitions, 1u);
}

TEST(run_supervised, delivers_everything_on_a_clean_link)
{
    scripted_link link; // no outage window
    const auto result =
        ap::run_supervised(ap::rate_table().back(), link.driver(), 40, 192.0);
    EXPECT_EQ(result.frames_delivered, 40u);
    EXPECT_DOUBLE_EQ(result.delivery_ratio(), 1.0);
    EXPECT_EQ(result.recovery.outages, 0u);
    EXPECT_EQ(result.recovery.probes, 0u);
    EXPECT_GT(result.goodput_bps, 0.0);
}

TEST(run_supervised, rides_through_an_outage_and_reports_recovery_metrics)
{
    scripted_link link;
    link.outage_start_s = 1e-3;
    link.outage_end_s = 4e-3;
    const auto result =
        ap::run_supervised(ap::rate_table().back(), link.driver(), 60, 192.0);
    EXPECT_EQ(result.recovery.outages, 1u);
    EXPECT_EQ(result.recovery.recoveries, 1u);
    EXPECT_GT(result.recovery.probes, 0u);
    EXPECT_GT(result.recovery.mean_detect_s(), 0.0);
    EXPECT_GT(result.recovery.mean_recover_s(), 0.0);
    EXPECT_EQ(result.frames_delivered, 60u); // nothing dropped: probes saved it
}

TEST(run_supervised, beats_plain_arq_on_an_outage_prone_link)
{
    // Synthetic acceptance check mirroring the R21 cliff: the link loses
    // lock at 1 ms (the scripted LO step) and stays down until someone
    // re-runs acquisition. The supervisor's watchdog does; plain ARQ never
    // does, so it retries blind and its goodput collapses.
    scripted_link supervised;
    supervised.lock_lost_at_s = 1e-3;
    const auto sup =
        ap::run_supervised(ap::rate_table().back(), supervised.driver(), 80, 192.0);
    EXPECT_GT(supervised.reacquisitions, 0u);

    scripted_link plain;
    plain.lock_lost_at_s = 1e-3;
    const auto transmit = plain.driver().transmit;
    const auto base = mac::stop_and_wait(80, [&](std::size_t, std::size_t) {
        return transmit(ap::rate_table().back()).delivered;
    });
    EXPECT_EQ(plain.reacquisitions, 0u);

    const double base_goodput_bps =
        static_cast<double>(base.frames_delivered) * 192.0 / plain.now_s;
    EXPECT_GT(sup.goodput_bps, base_goodput_bps);
    EXPECT_GT(sup.frames_delivered, base.frames_delivered);
}

TEST(supervised_report, merge_is_exact_in_any_grouping)
{
    // Delivered bits and elapsed time are the additive fields; goodput is
    // derived from their sums. The elapsed times are dyadic, so their sums
    // are exact and both groupings must agree bit for bit with the one
    // division of the totals. (Rebuilding bits as goodput x elapsed loses
    // the last bit for these reports.)
    const auto report = [](std::size_t delivered, double elapsed_s) {
        ap::supervised_report r;
        r.frames_offered = delivered + 1;
        r.frames_delivered = delivered;
        r.delivered_bits = static_cast<double>(delivered) * 192.0;
        r.elapsed_s = elapsed_s;
        r.recompute();
        return r;
    };
    const auto a = report(37, 0.125);
    const auto b = report(52, 2.9375);
    const auto c = report(41, 1.234375);

    auto left = a;
    left.merge(b);
    left.merge(c);
    auto bc = b;
    bc.merge(c);
    auto right = a;
    right.merge(bc);

    const double exact = (37.0 + 52.0 + 41.0) * 192.0 / (0.125 + 2.9375 + 1.234375);
    EXPECT_EQ(left.goodput_bps, exact);
    EXPECT_EQ(right.goodput_bps, exact);
    EXPECT_EQ(left.delivered_bits, right.delivered_bits);
    EXPECT_EQ(left.frames_offered, 133u);
    EXPECT_EQ(left.frames_delivered, 130u);
}

TEST(multitag_faults, carrier_dropout_blanks_the_capture_and_replays_identically)
{
    const std::vector<core::tag_descriptor> tags{{0, 2.0, 0.0}, {1, 2.5, 0.0}};
    const auto bursts_for = [](const core::multitag_simulator& sim) {
        const double slot = sim.burst_duration_s(24) + 20e-6;
        return std::vector<core::tag_burst>{{0, phy::random_bytes(24, 1), 0.0},
                                            {1, phy::random_bytes(24, 2), slot}};
    };

    core::multitag_simulator clean(core::fast_scenario(), tags);
    const auto reference = clean.run(bursts_for(clean));
    ASSERT_EQ(reference.size(), 2u);
    EXPECT_TRUE(reference[0].delivered);
    EXPECT_TRUE(reference[1].delivered);

    // Dropout-only schedule, dense and long enough that the first event is
    // all but guaranteed inside the capture — asserted below, not assumed.
    fault::fault_schedule::config sched;
    sched.horizon_s = 20e-3;
    sched.event_rate_hz = 20000.0;
    sched.blockage_weight = 0.0;
    sched.lo_step_weight = 0.0;
    sched.interferer_weight = 0.0;
    sched.brownout_weight = 0.0;
    sched.mean_duration_s = 10e-3;
    sched.min_duration_s = 10e-3;
    const fault::fault_schedule schedule(sched, 3);
    {
        core::multitag_simulator probe(core::fast_scenario(), tags);
        ASSERT_FALSE(active_events(schedule, 0.0, probe.burst_duration_s(24)).empty());
    }

    const auto run_faulted = [&] {
        core::multitag_simulator sim(core::fast_scenario(), tags);
        fault::fault_injector injector{schedule};
        sim.attach_fault_injector(&injector);
        return sim.run(bursts_for(sim));
    };
    const auto a = run_faulted();
    ASSERT_EQ(a.size(), 2u);
    // A 60 dB carrier collapse takes the whole capture down with it.
    EXPECT_FALSE(a[0].delivered);
    EXPECT_FALSE(a[1].delivered);

    const auto b = run_faulted();
    ASSERT_EQ(b.size(), 2u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].frame_found, b[i].frame_found);
        EXPECT_EQ(a[i].delivered, b[i].delivered);
        EXPECT_DOUBLE_EQ(a[i].snr_db, b[i].snr_db);
    }
}

TEST(run_supervised, missing_callbacks_throw)
{
    ap::link_driver driver;
    EXPECT_THROW((void)ap::run_supervised(ap::rate_table().back(), driver, 1, 192.0),
                 std::invalid_argument);
}

namespace {

/// FNV-1a over the bytes of each value folded in: a pin that moves when any
/// bit of a result moves.
struct fnv1a {
    std::uint64_t state = 1469598103934665603ULL;

    void bytes(const void* data, std::size_t size)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state = (state ^ p[i]) * 1099511628211ULL;
        }
    }
    template <typename T>
    void value(const T& v)
    {
        bytes(&v, sizeof v);
    }
};

fault::fault_event pinned_event(fault::fault_kind kind, double start_s, double duration_s,
                                double magnitude)
{
    fault::fault_event event;
    event.kind = kind;
    event.start_s = start_s;
    event.duration_s = duration_s;
    event.magnitude = magnitude;
    return event;
}

} // namespace

// Pins every sample-level fault application of the single-link simulator:
// one frame window per fault kind (blockage, carrier dropout, interferer,
// brownout), then a persistent LO step that an interferer burst overlaps.
// The hash pins the received samples bit for bit, so any change to the
// order of operations in fault::impairment shows here.
TEST(fault_impairment, link_frames_under_every_fault_kind_are_pinned)
{
    auto cfg = core::fast_scenario();
    cfg.distance_m = 3.0;
    cfg.seed = 5;
    const auto payload = phy::random_bytes(24, 77);
    const double w = core::link_simulator(cfg).run_frame(payload).elapsed_s;

    using fault::fault_kind;
    const fault::fault_schedule schedule(
        20.0 * w, {pinned_event(fault_kind::blockage, 1.2 * w, 0.5 * w, 9.0),
                   pinned_event(fault_kind::carrier_dropout, 2.2 * w, 0.5 * w, 4.0),
                   pinned_event(fault_kind::interferer, 3.2 * w, 0.5 * w, -8.0),
                   pinned_event(fault_kind::brownout, 4.2 * w, 0.5 * w, 0.0),
                   pinned_event(fault_kind::lo_step, 5.2 * w, 0.0, 100.0),
                   pinned_event(fault_kind::interferer, 6.2 * w, 0.5 * w, -14.0)});
    fault::fault_injector injector{schedule};
    core::link_simulator link(cfg);
    link.attach_fault_injector(&injector);

    fnv1a hash;
    std::size_t faulted = 0;
    for (std::size_t f = 0; f < 8; ++f) {
        const auto result = link.run_frame(payload);
        faulted += result.fault_active ? 1 : 0;
        hash.value(result.delivered);
        hash.value(result.rx.frame_found);
        hash.value(result.rx.snr_db);
        hash.value(result.rx.evm_db);
        hash.value(result.rx.suppression_db);
        hash.value(result.bit_errors);
        hash.value(result.tag_energy_j);
        hash.value(result.elapsed_s);
        hash.bytes(result.rx.payload.data(), result.rx.payload.size());
        hash.bytes(result.rx.symbols.data(), result.rx.symbols.size() * sizeof(cf64));
    }
    EXPECT_EQ(faulted, 7u); // every frame after the clean frame 0
    EXPECT_EQ(hash.state, 14868349466191704350ULL);
}

// The multi-tag capture's two fault paths: a shared injector (interferer,
// then a blockage and an LO step in the second capture) and per-tag
// injectors (tag 0 blocked throughout, tag 1 browned out in the first
// capture, tag 2 healthy).
TEST(fault_impairment, multitag_captures_under_shared_and_per_tag_faults_are_pinned)
{
    const std::vector<core::tag_descriptor> tags{{0, 2.0, 0.0}, {1, 2.5, 0.0}, {2, 3.0, 0.0}};
    auto cfg = core::fast_scenario();
    cfg.seed = 9;
    const auto bursts_for = [](const core::multitag_simulator& sim, std::uint64_t round) {
        const double slot = sim.burst_duration_s(24) + 20e-6;
        std::vector<core::tag_burst> bursts;
        for (std::size_t t = 0; t < 3; ++t) {
            bursts.push_back({t, phy::random_bytes(24, 100 * round + t),
                              static_cast<double>(t) * slot});
        }
        return bursts;
    };
    core::multitag_simulator sim(cfg, tags);
    const double w = sim.capture_duration_s(bursts_for(sim, 0));

    using fault::fault_kind;
    fault::fault_injector shared{fault::fault_schedule(
        4.0 * w, {pinned_event(fault_kind::interferer, 0.0, 3.0 * w, -25.0),
                  pinned_event(fault_kind::blockage, 1.0 * w, 1.5 * w, 3.0),
                  pinned_event(fault_kind::lo_step, 1.5 * w, 0.0, 100.0)})};
    fault::fault_injector tag0{fault::fault_schedule(
        4.0 * w, {pinned_event(fault_kind::blockage, 0.0, 3.0 * w, 6.0)})};
    fault::fault_injector tag1{fault::fault_schedule(
        4.0 * w, {pinned_event(fault_kind::brownout, 0.0, 0.9 * w, 0.0)})};
    sim.attach_fault_injector(&shared);
    sim.attach_tag_fault_injectors({&tag0, &tag1, nullptr});

    fnv1a hash;
    for (std::uint64_t round = 0; round < 2; ++round) {
        for (const auto& outcome : sim.run(bursts_for(sim, round))) {
            hash.value(outcome.frame_found);
            hash.value(outcome.delivered);
            hash.value(outcome.snr_db);
            hash.bytes(outcome.payload.data(), outcome.payload.size());
        }
    }
    EXPECT_EQ(hash.state, 15996241199800427014ULL);
}
