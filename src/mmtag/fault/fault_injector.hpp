// Applies a fault_schedule to a running simulation. The simulators consult
// the injector once per frame/burst window and receive the aggregate
// impairment to apply; duration-bounded events (blockage, dropout,
// interferer, brownout) expire on their own, while an LO step detunes the
// receive chain *persistently* until the supervisor re-runs acquisition
// (clear_lo_steps) — the failure mode that turns into a goodput cliff when
// nobody is supervising the link.
#pragma once

#include <array>
#include <cstdint>

#include "mmtag/common.hpp"
#include "mmtag/fault/fault_schedule.hpp"

namespace mmtag::obs {
class counter;
class metrics_registry;
}

namespace mmtag::fault {

/// Aggregate impairment over one frame/burst window. Amplitude factors are
/// field (voltage) scalings; the deepest overlapping event of each kind wins.
///
/// tag_scale, apply_to_carrier and apply_at_antenna are the one sample-level
/// application of an impairment, shared by core::link_simulator and
/// core::multitag_simulator.
/// The scale DES applies the same faults at SINR level
/// (scale/des_engine.cpp) and must agree with them.
struct impairment {
    double tag_amplitude = 1.0;     ///< one-way tag-path factor (blockage)
    double carrier_amplitude = 1.0; ///< AP carrier factor (dropout)
    double lo_offset_hz = 0.0;      ///< uncompensated RX/TX LO mismatch
    /// Interferer power relative to the tag's backscatter return [dB];
    /// <= -300 means no interferer burst overlaps the window.
    double interferer_rel_db = -300.0;
    bool tag_powered = true;        ///< false during a brownout

    [[nodiscard]] bool interferer_active() const { return interferer_rel_db > -300.0; }
    [[nodiscard]] bool any() const;

    /// Field factor on the tag's reflection: blockage shadows the tag path
    /// twice (AP->tag and tag->AP); a brownout stops the modulation, leaving
    /// the absorptive idle state.
    [[nodiscard]] double tag_scale() const
    {
        return tag_powered ? tag_amplitude * tag_amplitude : 0.0;
    }

    /// Carrier dropout: the PA output collapses by carrier_amplitude; the
    /// receive LO keeps running.
    void apply_to_carrier(cvec& rf) const;

    /// At the AP antenna, in this order: adds the in-band CW interferer
    /// burst, interferer_rel_db above `tag_return` x sqrt(tx_power_w) (the
    /// round-trip return of a tag at unit |Gamma|), offset from the carrier
    /// by 0.35 x the symbol rate so it lands inside the receive bandwidth;
    /// then spins the whole capture at the LO offset, which self-coherent
    /// downconversion cannot remove.
    void apply_at_antenna(cvec& antenna, double tag_return, double tx_power_w,
                          double symbol_rate_hz, double sample_rate_hz) const;
};

class fault_injector {
public:
    explicit fault_injector(fault_schedule schedule);

    [[nodiscard]] const fault_schedule& schedule() const { return schedule_; }

    /// Attaches an observability registry: each at() query that sees an
    /// impairment bumps a per-kind "fault/..." counter (and emits a
    /// fault.window trace instant when a trace session is active). Not
    /// owned; nullptr detaches. Counters are cached once resolved, so
    /// re-attach after clearing the registry.
    void attach_metrics(obs::metrics_registry* metrics);

    /// Impairment seen by a frame occupying [start_s, start_s + duration_s).
    /// Allocation-free and O(log n) plus the events near the window: it
    /// runs once per slot in the scale DES, against schedules of hundreds
    /// of events.
    [[nodiscard]] impairment at(double start_s, double duration_s) const;

    /// Re-lock after acquisition: forgets every LO step that started at or
    /// before `time_s`. Called by the link supervisor's session watchdog.
    void clear_lo_steps(double time_s);

    /// Uncompensated LO offset at `time_s` (latest uncleared step wins).
    [[nodiscard]] double lo_offset_hz(double time_s) const;

private:
    /// The attached registry's counter "fault/<name>", resolved on first use
    /// and cached in `slot` (the registry's map keeps it at a stable
    /// address). Resolving lazily keeps counters that never fire out of the
    /// snapshot.
    obs::counter& cached_counter(obs::counter*& slot, const char* name) const;

    fault_schedule schedule_;
    obs::metrics_registry* metrics_ = nullptr; ///< observer only, never read
    /// "fault/<kind>" counters, one per fault_kind, indexed by its value.
    mutable std::array<obs::counter*, 5> kind_counters_{};
    mutable obs::counter* impaired_windows_ = nullptr;
    obs::counter* lo_relocks_ = nullptr;
    double lo_cleared_until_s_ = 0.0;
};

} // namespace mmtag::fault
