#include "des_mirror.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/mac/tdma.hpp"
#include "mmtag/net/network_supervisor.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/runtime/trial_rng.hpp"

namespace perfbench {

using namespace mmtag;

namespace {

// The helpers des_engine.cpp keeps private, restated so the mirror can call
// the public pieces in the same order.
constexpr std::size_t probe_payload_bytes = 4;
constexpr double interferer_floor_db = -300.0;

std::uint64_t fnv1a64_line(std::uint64_t hash, const char* text, std::size_t length)
{
    for (std::size_t i = 0; i < length; ++i) {
        hash ^= static_cast<unsigned char>(text[i]);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

double slot_airtime_s(const ap::rate_option& option, std::size_t payload_bytes,
                      double symbol_rate_hz, const mac::tdma_config& mac)
{
    phy::frame_config frame;
    frame.scheme = option.scheme;
    frame.fec = option.fec;
    const std::size_t symbols = frame.preamble.total_symbols() + phy::header_symbol_count +
                                phy::payload_symbol_count(payload_bytes, frame);
    return mac.query_time_s + mac.turnaround_s +
           static_cast<double>(symbols) / symbol_rate_hz + mac.guard_time_s;
}

std::uint16_t pick_mcs(double sinr_db, double margin_db)
{
    const auto& ladder = ap::rate_table();
    std::uint16_t best = 0;
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        if (sinr_db >= ladder[i].required_snr_db + margin_db) {
            best = static_cast<std::uint16_t>(i);
        }
    }
    return best;
}

double event_uniform(std::uint64_t draw_seed, std::uint64_t seq)
{
    return static_cast<double>(runtime::substream(draw_seed, seq) >> 11) * 0x1.0p-53;
}

/// Adds the time since `start` to `total` and returns the new start.
clock_type::time_point lap(double& total, clock_type::time_point start)
{
    const auto now = clock_type::now();
    total += std::chrono::duration<double>(now - start).count();
    return now;
}

} // namespace

des_mirror_result mirror_scale_trial(const scale::scale_config& cfg,
                                     const scale::deployment& topo,
                                     const scale::phy_table& table, std::size_t trial)
{
    using scale::des_event;
    using scale::event_kind;

    const std::size_t n = topo.tags.size();
    const std::uint64_t tseed = runtime::trial_seed(cfg.seed, 0, trial);
    const std::uint64_t draw_seed = runtime::substream(tseed, 0);
    const std::uint64_t fault_seed = runtime::trial_seed(cfg.fault_seed, 0, trial);

    const auto& ladder = ap::rate_table();
    const mac::tdma_config mac{};
    std::vector<double> mcs_slot_s(ladder.size());
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        mcs_slot_s[i] =
            slot_airtime_s(ladder[i], cfg.payload_bytes, cfg.scenario.symbol_rate_hz, mac);
    }
    const double probe_slot_s =
        slot_airtime_s(ladder.front(), probe_payload_bytes, cfg.scenario.symbol_rate_hz, mac);
    std::vector<std::uint16_t> tag_mcs(n);
    for (std::size_t t = 0; t < n; ++t) tag_mcs[t] = pick_mcs(topo.tags[t].sinr_db, cfg.margin_db);

    double nominal_round_s = 0.0;
    for (std::size_t a = 0; a < topo.aps.size(); ++a) {
        double round_s = 0.0;
        for (const std::size_t t : topo.cells[a]) round_s += mcs_slot_s[tag_mcs[t]];
        nominal_round_s = std::max(nominal_round_s, round_s);
    }
    const double nominal_duration_s =
        std::max(1e-6, nominal_round_s * static_cast<double>(cfg.frames));
    fault::multi_tag_config faults = cfg.faults;
    faults.horizon_s = nominal_duration_s;
    faults.interferer_start_s = 0.1 * nominal_duration_s;
    faults.interferer_duration_s = 0.3 * nominal_duration_s;

    const fault::multi_tag_plan plan(faults, n, std::min(cfg.faulted, n), fault_seed);
    const fault::fault_injector shared_injector(plan.shared());
    std::vector<fault::fault_injector> tag_injectors;
    tag_injectors.reserve(n);
    for (const auto& schedule : plan.per_tag()) tag_injectors.emplace_back(schedule);

    std::vector<std::unique_ptr<net::network_supervisor>> supervisors(topo.aps.size());
    for (std::size_t a = 0; a < topo.aps.size(); ++a) {
        if (topo.cells[a].empty()) continue;
        net::supervisor_config sup_cfg;
        sup_cfg.session = cfg.session;
        sup_cfg.slot_budget = cfg.slot_budget;
        std::vector<std::uint32_t> ids;
        ids.reserve(topo.cells[a].size());
        for (const std::size_t t : topo.cells[a]) ids.push_back(topo.tags[t].id);
        supervisors[a] = std::make_unique<net::network_supervisor>(sup_cfg, ids);
    }

    des_mirror_result result;
    des_layer_totals& layers = result.layers;
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::vector<std::uint64_t> robust_stamp(n, 0);
    std::uint64_t stamp = 0;
    std::vector<std::size_t> rounds_done(topo.aps.size(), 0);

    scale::event_queue queue;
    for (std::size_t a = 0; a < topo.aps.size(); ++a) {
        if (supervisors[a] == nullptr) continue;
        des_event begin;
        begin.kind = event_kind::round_begin;
        begin.ap = static_cast<std::uint32_t>(a);
        queue.push(begin);
    }

    const std::uint64_t allocations_before = thread_allocations();
    char line[160];
    while (!queue.empty()) {
        layers.peak_queue_depth = std::max<std::uint64_t>(layers.peak_queue_depth, queue.size());
        auto t = clock_type::now();
        const des_event ev = queue.pop();
        t = lap(layers.queue_s, t);
        int outcome = -1;

        if (ev.kind == event_kind::round_begin) {
            auto& sup = *supervisors[ev.ap];
            const net::round_plan round = sup.plan_round();
            t = lap(layers.plan_s, t);
            ++stamp;
            for (const std::uint32_t id : round.robust) robust_stamp[id] = stamp;

            double cursor = ev.time_s;
            for (const std::uint32_t id : round.probes) {
                des_event slot;
                slot.kind = event_kind::probe_slot;
                slot.ap = ev.ap;
                slot.tag = id;
                slot.time_s = cursor;
                slot.duration_s = probe_slot_s;
                t = clock_type::now();
                queue.push(slot);
                t = lap(layers.queue_s, t);
                cursor += probe_slot_s;
            }
            t = clock_type::now();
            const std::vector<std::uint32_t> order =
                mac::tdma_scheduler::interleave_shares(round.shares);
            lap(layers.interleave_s, t);
            for (const std::uint32_t id : order) {
                des_event slot;
                slot.kind = event_kind::data_slot;
                slot.ap = ev.ap;
                slot.tag = id;
                slot.mcs = robust_stamp[id] == stamp ? 0 : tag_mcs[id];
                slot.time_s = cursor;
                slot.duration_s = mcs_slot_s[slot.mcs];
                t = clock_type::now();
                queue.push(slot);
                t = lap(layers.queue_s, t);
                cursor += slot.duration_s;
            }
            if (cursor == ev.time_s) cursor += mcs_slot_s[0];
            ++result.rounds;
            if (++rounds_done[ev.ap] < cfg.frames) {
                des_event next;
                next.kind = event_kind::round_begin;
                next.ap = ev.ap;
                next.time_s = cursor;
                t = clock_type::now();
                queue.push(next);
                lap(layers.queue_s, t);
            }
        } else {
            t = clock_type::now();
            const auto shared_imp = shared_injector.at(ev.time_s, ev.duration_s);
            const auto tag_imp = tag_injectors[ev.tag].at(ev.time_s, ev.duration_s);
            t = lap(layers.fault_s, t);

            const bool powered = shared_imp.tag_powered && tag_imp.tag_powered;
            const double a = shared_imp.tag_amplitude * tag_imp.tag_amplitude;
            const double c = shared_imp.carrier_amplitude * tag_imp.carrier_amplitude;
            const double rel_db =
                std::max(shared_imp.interferer_rel_db, tag_imp.interferer_rel_db);
            const double s_lin = from_db(topo.tags[ev.tag].sinr_db);
            const double signal_factor = a * a * a * a * c * c;
            const double denom =
                1.0 + (rel_db > interferer_floor_db ? s_lin * from_db(rel_db) : 0.0);
            const double sinr_eff_db = to_db(s_lin * signal_factor / denom);
            bool delivered = false;
            if (powered) {
                const double per = table.per(ev.mcs, sinr_eff_db);
                delivered = event_uniform(draw_seed, ev.seq) >= per;
            }
            outcome = delivered ? 1 : 0;
            t = lap(layers.phy_draw_s, t);

            auto& sup = *supervisors[ev.ap];
            if (ev.kind == event_kind::probe_slot) {
                ++result.probe_slots;
                sup.record_probe(ev.tag, delivered);
            } else {
                ++result.data_slots;
                if (sup.record_data(ev.tag, delivered) && delivered) ++result.delivered;
            }
            lap(layers.record_s, t);
        }

        t = clock_type::now();
        const int length = std::snprintf(
            line, sizeof line, "%llu %.9f %u %s %u %u %d\n",
            static_cast<unsigned long long>(ev.seq), ev.time_s, ev.ap,
            scale::event_kind_name(ev.kind), ev.tag, ev.mcs, outcome);
        hash = fnv1a64_line(hash, line, static_cast<std::size_t>(length));
        lap(layers.event_log_s, t);
    }
    layers.allocations = thread_allocations() - allocations_before;

    result.event_log_hash = hash;
    result.events = queue.pushed();
    for (std::size_t t = 0; t < n; ++t) {
        const auto& sup = supervisors[topo.tags[t].ap];
        layers.transitions += sup->session(topo.tags[t].id).transitions().size();
    }
    return result;
}

} // namespace perfbench
