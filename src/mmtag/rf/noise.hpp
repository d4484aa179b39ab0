// Thermal noise power and generation.
#pragma once

#include <random>
#include <span>

#include "mmtag/common.hpp"

namespace mmtag::rf {

/// Thermal noise power kTB [W] in `bandwidth_hz` at temperature `kelvin`.
[[nodiscard]] double thermal_noise_power(double bandwidth_hz, double kelvin = t0_kelvin);

/// Complex white Gaussian noise source of a given total power [W]
/// (variance split evenly between I and Q).
class awgn_source {
public:
    awgn_source(double power_watt, std::uint64_t seed);

    [[nodiscard]] double power() const { return power_; }

    [[nodiscard]] cf64 sample();

    /// Adds noise in place to a buffer.
    void add_to(std::span<cf64> buffer);

    /// Returns a noisy copy.
    [[nodiscard]] cvec apply(std::span<const cf64> input);

private:
    double power_;
    std::mt19937_64 rng_;
    std::normal_distribution<double> gaussian_{0.0, 1.0};
};

} // namespace mmtag::rf
