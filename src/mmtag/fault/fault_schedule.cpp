#include "mmtag/fault/fault_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace mmtag::fault {

namespace {

// Magnitude of each generated event: uniform over a range, fixed for dropouts.
constexpr double blockage_depth_db_min = 8.0;
constexpr double blockage_depth_db_max = 25.0;
constexpr double dropout_depth_db = 60.0;
constexpr double lo_step_hz_min = 50e3;
constexpr double lo_step_hz_max = 400e3;
constexpr double interferer_db_min = 10.0;
constexpr double interferer_db_max = 25.0;

// Cap on the expected event count (rate x horizon) of a generated schedule.
// Real runs stay in the tens; a rate typed in the wrong unit would otherwise
// fill memory one event at a time.
constexpr double max_expected_events = 1e6;

} // namespace

const char* fault_kind_name(fault_kind kind)
{
    switch (kind) {
    case fault_kind::blockage: return "blockage";
    case fault_kind::carrier_dropout: return "carrier_dropout";
    case fault_kind::lo_step: return "lo_step";
    case fault_kind::interferer: return "interferer";
    case fault_kind::brownout: return "brownout";
    }
    return "unknown";
}

fault_schedule::fault_schedule(const config& cfg, std::uint64_t seed)
    : cfg_(cfg), seed_(seed)
{
    // Each check is written so that NaN fails it.
    if (!(cfg.horizon_s > 0.0) || !std::isfinite(cfg.horizon_s)) {
        throw std::invalid_argument("fault_schedule: horizon must be finite and > 0");
    }
    if (!(cfg.event_rate_hz >= 0.0) || !std::isfinite(cfg.event_rate_hz)) {
        throw std::invalid_argument("fault_schedule: event rate must be finite and >= 0");
    }
    if (!(cfg.event_rate_hz * cfg.horizon_s <= max_expected_events)) {
        throw std::invalid_argument("fault_schedule: event rate x horizon above 1e6 events");
    }
    if (!(cfg.mean_duration_s > 0.0) || !std::isfinite(cfg.mean_duration_s)) {
        throw std::invalid_argument("fault_schedule: mean duration must be finite and > 0");
    }
    if (!(cfg.min_duration_s > 0.0) || !(cfg.max_duration_s >= cfg.min_duration_s)) {
        throw std::invalid_argument("fault_schedule: invalid duration bounds");
    }
    const double weights[] = {cfg.blockage_weight, cfg.dropout_weight,
                              cfg.lo_step_weight, cfg.interferer_weight,
                              cfg.brownout_weight};
    double total_weight = 0.0;
    for (double w : weights) {
        if (!(w >= 0.0)) throw std::invalid_argument("fault_schedule: negative weight");
        total_weight += w;
    }
    if (cfg.event_rate_hz == 0.0) return;
    if (!(total_weight > 0.0)) {
        throw std::invalid_argument("fault_schedule: all kinds disabled");
    }

    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
    std::exponential_distribution<double> gap(cfg.event_rate_hz);
    std::exponential_distribution<double> dwell(1.0 / cfg.mean_duration_s);
    std::discrete_distribution<int> pick(std::begin(weights), std::end(weights));
    std::uniform_real_distribution<double> unit(0.0, 1.0);

    double t = gap(rng);
    while (t < cfg.horizon_s) {
        fault_event event;
        event.kind = static_cast<fault_kind>(pick(rng));
        event.start_s = t;
        event.duration_s =
            std::clamp(dwell(rng), cfg.min_duration_s, cfg.max_duration_s);
        const double u = unit(rng);
        switch (event.kind) {
        case fault_kind::blockage:
            event.magnitude =
                blockage_depth_db_min + u * (blockage_depth_db_max - blockage_depth_db_min);
            break;
        case fault_kind::carrier_dropout:
            event.magnitude = dropout_depth_db;
            break;
        case fault_kind::lo_step:
            event.magnitude = lo_step_hz_min + u * (lo_step_hz_max - lo_step_hz_min);
            break;
        case fault_kind::interferer:
            event.magnitude = interferer_db_min + u * (interferer_db_max - interferer_db_min);
            break;
        case fault_kind::brownout:
            event.magnitude = 0.0;
            break;
        }
        events_.push_back(event);
        t += gap(rng);
    }
    summarize();
}

fault_schedule::fault_schedule(double horizon_s, std::vector<fault_event> events)
    : seed_(0), events_(normalize(std::move(events)))
{
    if (!(horizon_s > 0.0) || !std::isfinite(horizon_s)) {
        throw std::invalid_argument("fault_schedule: horizon must be finite and > 0");
    }
    cfg_ = config{};
    cfg_.horizon_s = horizon_s;
    cfg_.event_rate_hz = 0.0; // nothing was generated; the list is the truth
    for (const auto& event : events_) {
        if (event.start_s >= horizon_s) {
            throw std::invalid_argument("fault_schedule: event starts beyond horizon");
        }
    }
    summarize();
}

void fault_schedule::summarize()
{
    max_duration_s_ = 0.0;
    has_lo_steps_ = false;
    for (const auto& event : events_) {
        max_duration_s_ = std::max(max_duration_s_, event.duration_s);
        has_lo_steps_ = has_lo_steps_ || event.kind == fault_kind::lo_step;
    }
}

std::vector<fault_event> fault_schedule::normalize(std::vector<fault_event> events)
{
    for (const auto& event : events) {
        if (!std::isfinite(event.start_s) || !std::isfinite(event.duration_s) ||
            !std::isfinite(event.magnitude)) {
            throw std::invalid_argument("fault_schedule: non-finite event field");
        }
        if (event.start_s < 0.0 || event.duration_s < 0.0) {
            throw std::invalid_argument("fault_schedule: negative event time");
        }
    }
    // Zero-duration bounded events are no-ops by construction (overlaps()
    // uses half-open windows); drop them rather than carry dead weight.
    // Zero-duration lo_steps stay: the step itself is the fault.
    std::erase_if(events, [](const fault_event& e) {
        return e.duration_s <= 0.0 && e.kind != fault_kind::lo_step;
    });
    std::sort(events.begin(), events.end(), [](const fault_event& a, const fault_event& b) {
        if (a.start_s != b.start_s) return a.start_s < b.start_s;
        if (a.kind != b.kind) return a.kind < b.kind;
        if (a.duration_s != b.duration_s) return a.duration_s < b.duration_s;
        return a.magnitude < b.magnitude;
    });
    // Merge rule for same-kind overlap (and touching intervals): union the
    // window, keep the deepest magnitude — exactly what the injector's
    // deepest-event-wins aggregation would report anyway, so merged and
    // unmerged schedules impair identically.
    std::vector<fault_event> merged;
    merged.reserve(events.size());
    for (const auto& event : events) {
        fault_event* prior = nullptr;
        if (event.kind != fault_kind::lo_step) {
            for (auto it = merged.rbegin(); it != merged.rend(); ++it) {
                if (it->kind != event.kind) continue;
                if (it->end_s() >= event.start_s) prior = &*it;
                break;
            }
        }
        if (prior != nullptr) {
            prior->duration_s = std::max(prior->end_s(), event.end_s()) - prior->start_s;
            prior->magnitude = std::max(prior->magnitude, event.magnitude);
        } else {
            merged.push_back(event);
        }
    }
    return merged;
}

std::vector<fault_event>::const_iterator fault_schedule::first_candidate(double t0) const
{
    const double earliest = t0 - 2.0 * max_duration_s_;
    return std::partition_point(events_.begin(), events_.end(),
                                [earliest](const fault_event& e) {
                                    return e.start_s < earliest;
                                });
}

std::size_t fault_schedule::count(fault_kind kind) const
{
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(),
                      [kind](const fault_event& e) { return e.kind == kind; }));
}

} // namespace mmtag::fault
