// The composite AP -> tag -> AP channel. Everything the AP's receive antenna
// sees, on one timeline:
//
//   y[k] =   leakage * x[k]                                (TX-to-RX coupling)
//          + sum_i a_clutter_i * x[k - d_i]                (static reflectors)
//          + a_roundtrip * gamma[k - d1] * x[k - d_rt]     (the tag)
//
// where gamma[] is the tag's per-sample reflection coefficient (its modulated
// data), a_roundtrip follows the radar equation with the tag's retro-
// reflective backscatter gain, and all delays are physical path delays.
// Leakage and clutter are *unmodulated* copies of x — which is exactly why
// the AP's self-coherent downconversion turns them into DC that the
// canceller removes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mmtag/common.hpp"

namespace mmtag::channel {

/// A static environmental reflector (wall, desk, shelf).
struct scatterer {
    double distance_m = 3.0;
    double rcs_m2 = 0.1;
    /// Two-way antenna sidelobe discrimination: clutter off the AP's
    /// boresight is illuminated and received through sidelobes, not the
    /// main beam pointed at the tag.
    double antenna_discrimination_db = 0.0;
};

/// The distance-invariant factors of the tag path: linear power gains, the
/// specific attenuation, and the implementation loss as a field factor.
struct tag_path_gains {
    double frequency_hz = 0.0;
    double ap_tx = 0.0;
    double ap_rx = 0.0;
    double tag_backscatter = 0.0;
    double tag_aperture = 0.0;
    double atmospheric_db_per_km = 0.0; ///< clear air plus rain
    double implementation = 0.0;        ///< field factor, 10^(-loss/20)
};

/// Line-of-sight field amplitudes of the tag path at unit |Gamma|.
struct tag_path_amplitudes {
    double round_trip = 0.0; ///< AP -> tag -> AP
    double one_way = 0.0;    ///< AP -> tag aperture
};

/// The tag-path amplitudes over `distance_m` (> 0): the radar and Friis
/// budgets with atmospheric and implementation loss. The channel and the
/// link budget both evaluate the path through this one function.
[[nodiscard]] tag_path_amplitudes tag_path_at(const tag_path_gains& gains, double distance_m);

class backscatter_channel {
public:
    struct config {
        double frequency_hz = 24.125e9; ///< 24 GHz ISM band center
        double sample_rate_hz = 2e9;
        double distance_m = 2.0;
        /// Tag orientation: incidence angle of the AP direction measured
        /// from the tag array's broadside.
        double tag_incidence_rad = 0.0;
        double ap_tx_gain_dbi = 20.0;
        double ap_rx_gain_dbi = 20.0;
        /// Tag monostatic backscatter gain at unit |Gamma| (from the
        /// van_atta_array model evaluated at tag_incidence_rad) [dB].
        double tag_backscatter_gain_db = 18.0;
        /// Tag receive aperture gain for the AP→tag path [dB].
        double tag_aperture_gain_db = 9.0;
        /// Direct TX->RX coupling relative to TX power [dB], the dominant
        /// self-interference term.
        double tx_leakage_db = -35.0;
        std::vector<scatterer> clutter;
        double rain_rate_mm_per_hr = 0.0;
        /// Aggregate unmodeled losses on the tag path (pointing error,
        /// polarization mismatch, cable/connector losses, processing loss).
        /// Calibrates the idealized radar budget to bench-like ranges.
        double implementation_loss_db = 0.0;
        /// Rician K-factor of block fading on the tag path [dB]. The default
        /// (>= 80 dB) is effectively pure LOS; lower it to model multipath
        /// fades. One coefficient per draw — call redraw_fading() per frame.
        double rician_k_db = 100.0;
        std::uint64_t fading_seed = 1;
    };

    explicit backscatter_channel(const config& cfg);

    [[nodiscard]] const config& parameters() const { return cfg_; }

    /// The distance-invariant factors of the tag path.
    [[nodiscard]] const tag_path_gains& path_gains() const { return gains_; }

    /// One-way propagation delay in samples.
    [[nodiscard]] std::size_t one_way_delay_samples() const { return one_way_delay_; }

    /// Round-trip field amplitude of the tag path at unit |Gamma|
    /// (LOS value, before fading).
    [[nodiscard]] double round_trip_amplitude() const { return round_trip_amplitude_; }

    /// Current block-fading coefficient on the tag path (unit mean power).
    [[nodiscard]] cf64 fading_coefficient() const { return fading_; }

    /// Draws a fresh fading realization (used per frame in fading sweeps).
    void redraw_fading(std::uint64_t seed);

    /// Full AP receive-antenna signal. `tag_gamma` is the tag's reflection
    /// coefficient waveform on the tag's clock (index k multiplies the TX
    /// sample that reaches the tag at time k); out-of-range indices clamp to
    /// the nearest defined state. Output has the same length as `tx`.
    [[nodiscard]] cvec ap_received(std::span<const cf64> tx,
                                   std::span<const cf64> tag_gamma) const;

    /// Only the tag-path term of ap_received (no leakage/clutter): used to
    /// superpose several tags' reflections onto one environment.
    [[nodiscard]] cvec tag_contribution(std::span<const cf64> tx,
                                        std::span<const cf64> tag_gamma) const;

    /// Static (unmodulated) interference power [W] for a unit-power query:
    /// leakage plus all clutter returns.
    [[nodiscard]] double static_interference_power(double tx_power_w) const;

private:
    config cfg_;
    tag_path_gains gains_;
    std::size_t one_way_delay_;
    std::size_t round_trip_delay_;
    double round_trip_amplitude_;
    double leakage_amplitude_;
    cf64 fading_{1.0, 0.0};
    std::vector<std::size_t> clutter_delays_;
    rvec clutter_amplitudes_;
};

} // namespace mmtag::channel
