// Local-oscillator model: static frequency error (CFO) plus Wiener-process
// phase noise. In a self-coherent backscatter receiver the same LO feeds TX
// and RX, so the *common* phase noise cancels — the model exposes both a
// shared and an independent mode so that cancellation can be demonstrated.
#pragma once

#include "mmtag/common.hpp"
#include "mmtag/rf/gaussian_source.hpp"

namespace mmtag::rf {

/// Complex-exponential LO sample stream.
class oscillator {
public:
    struct config {
        double sample_rate_hz = 1e9;
        double frequency_offset_hz = 0.0; ///< CFO relative to nominal carrier
        /// One-sided phase-noise linewidth [Hz] of the Wiener (random-walk)
        /// process; 0 disables phase noise. Typical cheap mmWave synthesizer:
        /// a few hundred Hz to a few kHz Lorentzian linewidth.
        double linewidth_hz = 0.0;
    };

    oscillator(const config& cfg, std::uint64_t seed);

    /// Returns the next `count` samples of exp(j(2 pi f_off t + phi_n(t)))
    /// and advances that many.
    [[nodiscard]] cvec generate(std::size_t count);

    /// Current accumulated phase [rad].
    [[nodiscard]] double phase() const { return phase_; }

private:
    double phase_ = 0.0;
    double increment_;
    double phase_noise_sigma_;
    gaussian_source gaussian_;
};

} // namespace mmtag::rf
