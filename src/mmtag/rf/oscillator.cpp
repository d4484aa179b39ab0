#include "mmtag/rf/oscillator.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace mmtag::rf {

oscillator::oscillator(const config& cfg, std::uint64_t seed)
    : gaussian_(seed)
{
    if (cfg.sample_rate_hz <= 0.0) throw std::invalid_argument("oscillator: sample rate <= 0");
    if (cfg.linewidth_hz < 0.0) throw std::invalid_argument("oscillator: linewidth < 0");
    increment_ = two_pi * cfg.frequency_offset_hz / cfg.sample_rate_hz;
    // Wiener phase noise: variance per sample = 2 pi * linewidth / fs.
    phase_noise_sigma_ = std::sqrt(two_pi * cfg.linewidth_hz / cfg.sample_rate_hz);
}

cvec oscillator::generate(std::size_t count)
{
    constexpr std::size_t chunk = gaussian_source::chunk_draws; // one draw per sample
    std::array<double, chunk> draws;
    const bool noisy = phase_noise_sigma_ > 0.0;
    cvec out(count);
    for (std::size_t start = 0; start < count; start += chunk) {
        const std::size_t n = std::min(chunk, count - start);
        if (noisy) gaussian_.fill(std::span(draws).first(n));
        for (std::size_t i = 0; i < n; ++i) {
            out[start + i] = std::polar(1.0, phase_);
            double delta = increment_;
            if (noisy) delta += phase_noise_sigma_ * draws[i];
            phase_ = wrap_phase(phase_ + delta);
        }
    }
    return out;
}

} // namespace mmtag::rf
