#include "mmtag/rf/envelope_detector.hpp"

#include <stdexcept>

namespace mmtag::rf {

envelope_detector::envelope_detector(const config& cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed)
{
    if (cfg.sample_rate_hz <= 0.0) throw std::invalid_argument("envelope_detector: fs <= 0");
    if (cfg.video_bandwidth_hz <= 0.0 || cfg.video_bandwidth_hz > cfg.sample_rate_hz / 2.0) {
        throw std::invalid_argument("envelope_detector: video bandwidth out of range");
    }
    if (cfg.responsivity_v_per_w <= 0.0) {
        throw std::invalid_argument("envelope_detector: responsivity must be > 0");
    }
    // Single-pole IIR matching the video bandwidth corner.
    filter_alpha_ = 1.0 - std::exp(-two_pi * cfg.video_bandwidth_hz / cfg.sample_rate_hz);
}

rvec envelope_detector::detect(std::span<const cf64> rf)
{
    const double noise_sigma_volts =
        cfg_.noise_equivalent_power_w * cfg_.responsivity_v_per_w;
    rvec out;
    out.reserve(rf.size());
    for (cf64 x : rf) {
        const double power = std::norm(x); // square-law detection
        double voltage = cfg_.responsivity_v_per_w * power;
        voltage += noise_sigma_volts * gaussian_(rng_);
        state_ += filter_alpha_ * (voltage - state_);
        out.push_back(state_);
    }
    return out;
}

} // namespace mmtag::rf
