// Network-scale chaos plans: one fault timeline per tag plus a shared
// channel timeline, generated deterministically from (config, seed). Where
// the single-link schedule draws independent Poisson events, the multi-tag
// plan produces the correlated patterns that actually stress a network
// supervisor:
//   * blockage storms — one body shadow covers a contiguous group of tags
//     with the *same* event (same onset, duration, depth), so several
//     sessions degrade at once;
//   * rolling brownouts — periodic harvester undervoltage staggered tag by
//     tag, the pattern a shared power beacon sweeping the room produces;
//   * a persistent interferer — one long in-band CW burst on the shared
//     channel that every capture sees;
//   * independent background events per tag, from the ordinary
//     fault_schedule generator.
// Only the first `faulted_count` tags receive per-tag faults; the rest stay
// physically healthy, which is what lets the soak invariants separate
// "degrades the faulted tag" from "stalls the network".
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mmtag/fault/fault_schedule.hpp"

namespace mmtag::fault {

struct multi_tag_config {
    double horizon_s = 0.1;
    /// Faults only start inside [0, horizon_s * active_fraction): the quiet
    /// tail is what lets quarantined tags recover and the re-admission-bound
    /// invariant observe the recovery.
    double active_fraction = 0.6;

    /// Correlated blockage storms (Poisson onsets; 0 disables).
    double storm_rate_hz = 60.0;
    /// Contiguous tags shadowed by one storm.
    std::size_t storm_span = 3;
    double storm_duration_s = 4e-3;
    double storm_depth_db_min = 12.0;
    double storm_depth_db_max = 25.0;

    /// Rolling brownouts (0 period disables).
    double brownout_period_s = 30e-3;
    double brownout_duration_s = 4e-3;
    /// Onset offset between consecutive faulted tags.
    double brownout_stagger_s = 6e-3;

    /// Persistent shared interferer (0 duration disables).
    double interferer_start_s = 10e-3;
    double interferer_duration_s = 30e-3;
    double interferer_rel_db = 14.0;

    /// Independent per-tag background events (0 disables). Restricted to
    /// blockage + brownout: the duration-bounded per-tag kinds.
    double background_rate_hz = 30.0;
    double background_mean_duration_s = 2e-3;
};

class multi_tag_plan {
public:
    /// Faulted tags are indices [0, faulted_count); throws when
    /// faulted_count > tag_count or the config is degenerate.
    multi_tag_plan(const multi_tag_config& cfg, std::size_t tag_count,
                   std::size_t faulted_count, std::uint64_t seed);

    [[nodiscard]] const multi_tag_config& parameters() const { return cfg_; }
    [[nodiscard]] std::size_t tag_count() const { return tag_count_; }
    [[nodiscard]] std::size_t faulted_count() const { return faulted_count_; }

    /// Shared-channel timeline (the persistent interferer).
    [[nodiscard]] const fault_schedule& shared() const { return shared_; }
    /// Per-tag timelines; healthy tags hold empty schedules.
    [[nodiscard]] const std::vector<fault_schedule>& per_tag() const { return per_tag_; }
    /// Moves the per-tag timelines out (per_tag() is empty afterwards), so a
    /// simulator can hand each to its own fault_injector without copying the
    /// event lists (over 100 MB at 10^5 tags, 10% faulted).
    [[nodiscard]] std::vector<fault_schedule> take_per_tag()
    {
        return std::exchange(per_tag_, {});
    }

    /// Latest end over every scheduled event (shared and per-tag) — the
    /// instant after which the whole network is physically healthy again.
    [[nodiscard]] double last_fault_end_s() const { return last_end_s_; }

private:
    multi_tag_config cfg_;
    std::size_t tag_count_;
    std::size_t faulted_count_;
    fault_schedule shared_;
    std::vector<fault_schedule> per_tag_;
    double last_end_s_ = 0.0;
};

} // namespace mmtag::fault
