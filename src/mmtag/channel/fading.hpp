// Small-scale fading: Rician/Rayleigh block fading and a tapped-delay-line
// multipath channel with optional Doppler-driven tap rotation.
#pragma once

#include <cstddef>
#include <random>
#include <span>

#include "mmtag/common.hpp"

namespace mmtag::channel {

/// Draws one Rician block-fading field coefficient with mean power 1.
/// `k_factor_db` is the LOS-to-scatter power ratio; k -> -inf gives Rayleigh,
/// k -> +inf gives a pure LOS (unit) coefficient.
[[nodiscard]] cf64 rician_coefficient(double k_factor_db, std::mt19937_64& rng);

/// Multipath tap description: delay in samples, mean power (linear), and a
/// Doppler frequency that rotates the tap phase over time.
struct multipath_tap {
    std::size_t delay_samples = 0;
    double power = 1.0;
    double doppler_hz = 0.0;
};

/// Tapped-delay-line channel. Tap coefficients are drawn once (Rician on the
/// first tap, Rayleigh on echoes) and rotate at their Doppler rates.
class multipath_channel {
public:
    struct config {
        std::vector<multipath_tap> taps{{0, 1.0, 0.0}};
        double k_factor_db = 15.0; ///< Rician K of the first (LOS) tap
        double sample_rate_hz = 1e9;
    };

    multipath_channel(const config& cfg, std::uint64_t seed);

    /// Convolves input with the (time-varying) channel impulse response.
    [[nodiscard]] cvec apply(std::span<const cf64> input);

    /// RMS delay spread of the configured power-delay profile [s].
    [[nodiscard]] double rms_delay_spread_s() const;

private:
    config cfg_;
    cvec coefficients_;
    double time_s_ = 0.0;
};

/// Typical indoor-lab profile at mmWave: strong LOS plus two weak echoes
/// (floor/wall bounce) a few ns out.
[[nodiscard]] multipath_channel::config indoor_los_profile(double sample_rate_hz,
                                                           double k_factor_db = 15.0);

} // namespace mmtag::channel
