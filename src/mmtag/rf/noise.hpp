// Thermal noise power and generation.
#pragma once

#include <span>

#include "mmtag/common.hpp"
#include "mmtag/rf/gaussian_source.hpp"

namespace mmtag::rf {

/// Thermal noise power kTB [W] in `bandwidth_hz` at temperature `kelvin`.
[[nodiscard]] double thermal_noise_power(double bandwidth_hz, double kelvin = t0_kelvin);

/// Complex white Gaussian noise source of a given total power [W]
/// (variance split evenly between I and Q).
class awgn_source {
public:
    awgn_source(double power_watt, std::uint64_t seed);

    [[nodiscard]] double power() const { return power_; }

    /// Adds noise in place to a buffer.
    void add_to(std::span<cf64> buffer);

    /// Returns a noisy copy.
    [[nodiscard]] cvec apply(std::span<const cf64> input);

private:
    double power_;
    gaussian_source gaussian_;
};

} // namespace mmtag::rf
