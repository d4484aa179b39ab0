// Time-varying blockage: mmWave links die behind a human body. The model is
// a two-state (clear/blocked) continuous-time Markov process with smooth
// raised-cosine transitions — the standard abstraction for body-shadowing
// studies — producing a per-sample loss trace the link applies to the tag
// path.
#pragma once

#include <cstdint>
#include <random>

#include "mmtag/common.hpp"

namespace mmtag::channel {

class blockage_process {
public:
    struct config {
        double sample_rate_hz = 50e6;
        /// Mean time between blockage onsets [s].
        double mean_clear_s = 50e-3;
        /// Mean blockage dwell [s].
        double mean_blocked_s = 20e-3;
        /// Loss while fully blocked [dB] (body shadowing at 24 GHz: 15-30).
        double blockage_loss_db = 20.0;
        /// Rise/decay time of the shadow edge [s] (person walking).
        double transition_s = 2e-3;
    };

    blockage_process(const config& cfg, std::uint64_t seed);

    [[nodiscard]] const config& parameters() const { return cfg_; }
    [[nodiscard]] bool blocked() const { return blocked_; }

    /// Field-amplitude factor for the next sample (1 = clear).
    [[nodiscard]] double step();

private:
    void schedule_next();

    config cfg_;
    std::mt19937_64 rng_;
    bool blocked_ = false;
    double time_s_ = 0.0;
    double next_toggle_s_ = 0.0;
    double level_ = 1.0;          // current amplitude factor
    double blocked_amplitude_;    // amplitude when fully blocked
    double slew_per_sample_;      // max level change per sample
};

} // namespace mmtag::channel
