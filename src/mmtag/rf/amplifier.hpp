// Amplifier models: linear gain + additive noise referred to the input (LNA)
// and Rapp soft-saturation nonlinearity (PA).
#pragma once

#include <span>

#include "mmtag/common.hpp"
#include "mmtag/rf/gaussian_source.hpp"

namespace mmtag::rf {

/// Low-noise amplifier: applies voltage gain and adds noise equivalent to its
/// noise figure over the simulation bandwidth.
class lna {
public:
    struct config {
        double gain_db = 20.0;
        double noise_figure_db = 3.0;
        double bandwidth_hz = 1e9; ///< noise bandwidth of the simulation
    };

    lna(const config& cfg, std::uint64_t seed);

    [[nodiscard]] double gain_db() const { return cfg_.gain_db; }
    [[nodiscard]] double noise_figure_db() const { return cfg_.noise_figure_db; }

    /// Added-noise power at the *input* reference plane [W], at t0_kelvin.
    [[nodiscard]] double input_referred_noise_power() const;

    /// Adds the input-referred noise and applies the gain, in place.
    void process_in_place(std::span<cf64> buffer);

    /// Returns an amplified copy.
    [[nodiscard]] cvec process(std::span<const cf64> input);

private:
    config cfg_;
    double voltage_gain_;
    double noise_sigma_;
    gaussian_source gaussian_;
};

/// Power amplifier with the Rapp AM/AM model:
///   g(a) = G a / (1 + (G a / A_sat)^(2p))^(1/2p), p = 2
/// AM/PM is assumed negligible (solid-state PA).
class power_amplifier {
public:
    struct config {
        double gain_db = 30.0;
        double output_saturation_dbm = 30.0; ///< saturated output power
    };

    explicit power_amplifier(const config& cfg);

    /// Inputs below this amplitude give exactly zero output.
    static constexpr double min_amplitude = 1e-30;

    /// Voltage gain at input amplitude `amplitude` (>= min_amplitude):
    /// process(x) is x * gain(|x|), bit for bit.
    [[nodiscard]] double gain(double amplitude) const;

    [[nodiscard]] cf64 process(cf64 input) const;

private:
    double voltage_gain_;
    double saturation_amplitude_; // volts across 1 ohm reference
};

} // namespace mmtag::rf
