// Deterministic fault timeline: a seeded Poisson process of timed impairment
// events (blockage bursts, carrier dropouts, LO frequency steps, interferer
// bursts, tag energy brownouts) over a fixed horizon. The schedule is
// generated once from (config, seed) and never mutated, so any experiment
// rerun with the same seed sees bit-identical faults — the property the
// deterministic-replay tests pin down.
#pragma once

#include <cstdint>
#include <vector>

namespace mmtag::fault {

enum class fault_kind {
    blockage,        ///< human body shadow: one-way loss on the tag path
    carrier_dropout, ///< AP carrier collapses (PA glitch / regulatory duty)
    lo_step,         ///< synthesizer frequency step; persists until re-lock
    interferer,      ///< in-band CW burst at the AP antenna
    brownout,        ///< tag harvester undervoltage: modulation stops
};

[[nodiscard]] const char* fault_kind_name(fault_kind kind);

struct fault_event {
    fault_kind kind = fault_kind::blockage;
    double start_s = 0.0;
    double duration_s = 0.0;
    /// Kind-dependent severity: blockage one-way depth [dB], dropout carrier
    /// attenuation [dB], lo_step offset [Hz], interferer power relative to
    /// the tag's backscatter return [dB]. Unused for brownout.
    double magnitude = 0.0;

    [[nodiscard]] double end_s() const { return start_s + duration_s; }
    [[nodiscard]] bool overlaps(double t0, double t1) const
    {
        return start_s < t1 && end_s() > t0;
    }
};

class fault_schedule {
public:
    struct config {
        double horizon_s = 0.1;
        /// Total Poisson onset rate across all enabled kinds [events/s].
        double event_rate_hz = 100.0;
        /// Relative mix of kinds (weight 0 disables a kind).
        double blockage_weight = 4.0;
        double dropout_weight = 1.0;
        double lo_step_weight = 2.0;
        double interferer_weight = 2.0;
        double brownout_weight = 1.0;
        /// Mean event duration [s] (exponential, clamped below).
        double mean_duration_s = 2e-3;
        double min_duration_s = 0.2e-3;
        double max_duration_s = 10e-3;
    };

    /// Draws the schedule. Throws std::invalid_argument on a horizon or mean
    /// duration that is not finite and > 0, a rate that is not finite and
    /// >= 0, or a rate whose expected event count (rate x horizon) is above
    /// 1e6.
    fault_schedule(const config& cfg, std::uint64_t seed);

    /// Builds a schedule from an explicit event list (the path the multi-tag
    /// chaos plans use), after running it through normalize(). `horizon_s`
    /// bounds the timeline; events starting at or beyond it throw.
    fault_schedule(double horizon_s, std::vector<fault_event> events);

    /// Deterministic event-list cleanup, applied by the explicit constructor:
    ///   * non-finite or negative start/duration/magnitude fields throw;
    ///   * duration-bounded events (everything but lo_step) with zero
    ///     duration are dropped — a zero-length window can never overlap a
    ///     frame. lo_step events are kept regardless: the synthesizer stays
    ///     detuned until re-lock, so their duration is irrelevant;
    ///   * events sort by (start, kind, duration, magnitude);
    ///   * overlapping or touching duration-bounded events of the same kind
    ///     merge into one event spanning their union with the deepest
    ///     magnitude (matching the injector's deepest-event-wins
    ///     aggregation). lo_step events never merge — which step is latest
    ///     decides the offset, so order is semantic.
    [[nodiscard]] static std::vector<fault_event> normalize(std::vector<fault_event> events);

    [[nodiscard]] const config& parameters() const { return cfg_; }
    [[nodiscard]] std::uint64_t seed() const { return seed_; }
    [[nodiscard]] const std::vector<fault_event>& events() const { return events_; }

    /// Calls `visit(event)` for each event overlapping [t0, t1), in schedule
    /// order, without allocating. No event lasts longer than the schedule's
    /// longest duration, so every overlapping event starts inside
    /// [t0 - 2 * max_duration, t1); a binary search finds that window (the
    /// factor 2 leaves room for rounding in t0 - max_duration) and the exact
    /// overlaps() test filters it: O(log n + events in the window).
    template <typename Visit>
    void visit_active(double t0, double t1, Visit&& visit) const
    {
        for (auto it = first_candidate(t0); it != events_.end() && it->start_s < t1; ++it) {
            if (it->overlaps(t0, t1)) visit(*it);
        }
    }

    /// True when the schedule holds at least one lo_step event.
    [[nodiscard]] bool has_lo_steps() const { return has_lo_steps_; }

    /// Number of scheduled events of one kind.
    [[nodiscard]] std::size_t count(fault_kind kind) const;

private:
    [[nodiscard]] std::vector<fault_event>::const_iterator first_candidate(double t0) const;
    /// Derives the O(1) lookup summary below from events_.
    void summarize();

    config cfg_;
    std::uint64_t seed_;
    std::vector<fault_event> events_; ///< sorted by start_s
    double max_duration_s_ = 0.0;
    bool has_lo_steps_ = false;
};

} // namespace mmtag::fault
