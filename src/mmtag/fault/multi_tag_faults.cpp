#include "mmtag/fault/multi_tag_faults.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace mmtag::fault {

namespace {

// Cap on the expected storm count and on the brownout onsets per tag, as
// fault_schedule caps its events: the soak and DES defaults stay in the tens.
constexpr double max_expected_events = 1e6;

} // namespace

multi_tag_plan::multi_tag_plan(const multi_tag_config& cfg, std::size_t tag_count,
                               std::size_t faulted_count, std::uint64_t seed)
    : cfg_(cfg), tag_count_(tag_count), faulted_count_(faulted_count),
      shared_(cfg.horizon_s, {})
{
    if (tag_count == 0) throw std::invalid_argument("multi_tag_plan: no tags");
    if (faulted_count > tag_count) {
        throw std::invalid_argument("multi_tag_plan: faulted_count > tag_count");
    }
    // Each check is written so that NaN fails it.
    if (!(cfg.horizon_s > 0.0) || !std::isfinite(cfg.horizon_s)) {
        throw std::invalid_argument("multi_tag_plan: horizon must be finite and > 0");
    }
    if (!(cfg.active_fraction > 0.0 && cfg.active_fraction <= 1.0)) {
        throw std::invalid_argument("multi_tag_plan: active_fraction must be in (0, 1]");
    }
    for (const double value :
         {cfg.storm_rate_hz, cfg.background_rate_hz, cfg.brownout_period_s}) {
        if (!(value >= 0.0) || !std::isfinite(value)) {
            throw std::invalid_argument("multi_tag_plan: rate or period not finite and >= 0");
        }
    }
    // A NaN duration would fail the `> 0.0` guards below and drop its family.
    for (const double value : {cfg.brownout_duration_s, cfg.interferer_duration_s,
                               cfg.brownout_stagger_s, cfg.interferer_start_s}) {
        if (!std::isfinite(value)) {
            throw std::invalid_argument("multi_tag_plan: duration or offset not finite");
        }
    }
    if (cfg.storm_rate_hz > 0.0 && cfg.storm_span == 0) {
        throw std::invalid_argument("multi_tag_plan: storm_span must be >= 1");
    }
    const double active_end = cfg.horizon_s * cfg.active_fraction;
    if (!(cfg.storm_rate_hz * active_end <= max_expected_events)) {
        throw std::invalid_argument("multi_tag_plan: storm rate x active window above 1e6");
    }
    if (cfg.brownout_period_s > 0.0 &&
        !(active_end / cfg.brownout_period_s <= max_expected_events)) {
        throw std::invalid_argument("multi_tag_plan: brownout onsets per tag above 1e6");
    }

    std::vector<std::vector<fault_event>> events(tag_count);

    std::mt19937_64 rng(seed * 0xA24BAED4963EE407ULL + 0x9FB21C651E98DF25ULL);
    std::uniform_real_distribution<double> unit(0.0, 1.0);

    // Correlated blockage storms: every tag in the covered span receives the
    // identical event, so their sessions see the same onset and depth.
    if (cfg.storm_rate_hz > 0.0 && faulted_count > 0) {
        std::exponential_distribution<double> gap(cfg.storm_rate_hz);
        std::uniform_int_distribution<std::size_t> origin(0, faulted_count - 1);
        double t = gap(rng);
        while (t < active_end) {
            fault_event storm;
            storm.kind = fault_kind::blockage;
            storm.start_s = t;
            storm.duration_s = cfg.storm_duration_s;
            storm.magnitude =
                cfg.storm_depth_db_min +
                unit(rng) * (cfg.storm_depth_db_max - cfg.storm_depth_db_min);
            const std::size_t first = origin(rng);
            const std::size_t last = std::min(first + cfg.storm_span, faulted_count);
            for (std::size_t tag = first; tag < last; ++tag) {
                events[tag].push_back(storm);
            }
            t += gap(rng);
        }
    }

    // Rolling brownouts: tag j's harvester dips at j*stagger + k*period.
    if (cfg.brownout_period_s > 0.0 && cfg.brownout_duration_s > 0.0) {
        for (std::size_t tag = 0; tag < faulted_count; ++tag) {
            double onset = static_cast<double>(tag) * cfg.brownout_stagger_s;
            if (onset < active_end) {
                events[tag].reserve(events[tag].size() + 1 +
                                    static_cast<std::size_t>((active_end - onset) /
                                                             cfg.brownout_period_s));
            }
            for (; onset < active_end; onset += cfg.brownout_period_s) {
                fault_event dip;
                dip.kind = fault_kind::brownout;
                dip.start_s = onset;
                dip.duration_s = cfg.brownout_duration_s;
                events[tag].push_back(dip);
            }
        }
    }

    // Independent background noise per faulted tag: per-tag kinds only, so a
    // background draw never fabricates a shared-channel fault.
    if (cfg.background_rate_hz > 0.0) {
        for (std::size_t tag = 0; tag < faulted_count; ++tag) {
            fault_schedule::config background;
            background.horizon_s = active_end;
            background.event_rate_hz = cfg.background_rate_hz;
            background.mean_duration_s = cfg.background_mean_duration_s;
            background.dropout_weight = 0.0;
            background.lo_step_weight = 0.0;
            background.interferer_weight = 0.0;
            const fault_schedule drawn(background,
                                       seed * 0x2545F4914F6CDD1DULL + tag + 1);
            events[tag].insert(events[tag].end(), drawn.events().begin(),
                               drawn.events().end());
        }
    }

    per_tag_.reserve(tag_count);
    for (std::size_t tag = 0; tag < tag_count; ++tag) {
        per_tag_.emplace_back(cfg.horizon_s, std::move(events[tag]));
        for (const auto& event : per_tag_.back().events()) {
            last_end_s_ = std::max(last_end_s_, event.end_s());
        }
    }

    std::vector<fault_event> shared_events;
    if (cfg.interferer_duration_s > 0.0) {
        fault_event cw;
        cw.kind = fault_kind::interferer;
        cw.start_s = cfg.interferer_start_s;
        cw.duration_s = cfg.interferer_duration_s;
        cw.magnitude = cfg.interferer_rel_db;
        shared_events.push_back(cw);
    }
    shared_ = fault_schedule(cfg.horizon_s, std::move(shared_events));
    for (const auto& event : shared_.events()) {
        last_end_s_ = std::max(last_end_s_, event.end_s());
    }
}

} // namespace mmtag::fault
