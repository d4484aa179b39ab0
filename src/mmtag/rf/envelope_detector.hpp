// Envelope (power) detector — the tag's only receive element. A Schottky
// detector produces a low-rate voltage proportional to incident RF power;
// the tag uses it to detect the AP's query carrier and wake up.
#pragma once

#include <random>
#include <span>

#include "mmtag/common.hpp"

namespace mmtag::rf {

class envelope_detector {
public:
    struct config {
        double responsivity_v_per_w = 2000.0; ///< Schottky diode responsivity
        double video_bandwidth_hz = 10e6;     ///< output low-pass corner
        double sample_rate_hz = 1e9;
        double noise_equivalent_power_w = 1e-9; ///< NEP over video bandwidth
    };

    envelope_detector(const config& cfg, std::uint64_t seed);

    /// Converts incident complex RF samples into detector output voltage
    /// (square-law + single-pole video filter + detector noise).
    [[nodiscard]] rvec detect(std::span<const cf64> rf);

private:
    config cfg_;
    double filter_alpha_;
    double state_ = 0.0;
    std::mt19937_64 rng_;
    std::normal_distribution<double> gaussian_{0.0, 1.0};
};

} // namespace mmtag::rf
