// Self-interference cancellation. After self-coherent downconversion, TX
// leakage and static clutter are constant complex offsets (pure DC); the tag
// signal is modulated and therefore spectrally spread.
//
// The production mode is background subtraction: the AP estimates the static
// offset from the leading part of the capture window — before the tag's
// turnaround ends, the tag is absorptive and the window contains *only* the
// static environment — and subtracts it everywhere. Unlike a DC notch this
// removes none of the signal's own spectrum, and unlike a global mean it is
// not biased by the frame's symbol imbalance.
#pragma once

#include <span>

#include "mmtag/common.hpp"
#include "mmtag/dsp/dc_blocker.hpp"

namespace mmtag::ap {

enum class cancellation_mode {
    off,                 ///< pass-through (ablation baseline)
    dc_notch,            ///< streaming DC-blocking notch only
    mean_subtract,       ///< global block mean + notch (biased by frame DC)
    background_subtract, ///< static estimate from the quiet leading window
};

class self_interference_canceller {
public:
    struct config {
        cancellation_mode mode = cancellation_mode::background_subtract;
        /// Fraction of the capture used as the quiet background window
        /// (background_subtract mode). Must lie inside the tag's guard time.
        double training_fraction = 0.05;
        /// Fraction skipped before the training window: propagation-delay
        /// turn-on transients at the capture edge would bias the estimate.
        double training_skip = 0.01;
        /// Trailing quiet-window fraction used to track slow drift of the
        /// statics across the capture (two-point linear background).
        double tail_fraction = 0.02;
    };

    explicit self_interference_canceller(const config& cfg);

    [[nodiscard]] cvec process(std::span<const cf64> baseband);

    /// Residual-to-input power ratio of the last process() call [dB];
    /// strongly negative numbers mean deep cancellation.
    [[nodiscard]] double last_suppression_db() const { return last_suppression_db_; }

    /// The static offset estimated by the last background_subtract run.
    [[nodiscard]] cf64 background_estimate() const { return background_; }

private:
    config cfg_;
    dsp::dc_blocker notch_;
    double last_suppression_db_ = 0.0;
    cf64 background_{};
};

} // namespace mmtag::ap
