#include "mmtag/rf/oscillator.hpp"

#include <stdexcept>

namespace mmtag::rf {

oscillator::oscillator(const config& cfg, std::uint64_t seed)
    : rng_(seed)
{
    if (cfg.sample_rate_hz <= 0.0) throw std::invalid_argument("oscillator: sample rate <= 0");
    if (cfg.linewidth_hz < 0.0) throw std::invalid_argument("oscillator: linewidth < 0");
    increment_ = two_pi * cfg.frequency_offset_hz / cfg.sample_rate_hz;
    // Wiener phase noise: variance per sample = 2 pi * linewidth / fs.
    phase_noise_sigma_ = std::sqrt(two_pi * cfg.linewidth_hz / cfg.sample_rate_hz);
}

cf64 oscillator::step()
{
    const cf64 sample = std::polar(1.0, phase_);
    double delta = increment_;
    if (phase_noise_sigma_ > 0.0) delta += phase_noise_sigma_ * gaussian_(rng_);
    phase_ = wrap_phase(phase_ + delta);
    return sample;
}

cvec oscillator::generate(std::size_t count)
{
    cvec out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) out.push_back(step());
    return out;
}

} // namespace mmtag::rf
