// Antenna element radiation patterns. All gains are linear power gains; all
// angles are azimuth radians measured from broadside (the array normal).
#pragma once

#include <functional>
#include <memory>

#include "mmtag/common.hpp"

namespace mmtag::antenna {

/// Abstract radiating element.
class element {
public:
    virtual ~element() = default;

    /// Power gain toward `theta_rad` off broadside.
    [[nodiscard]] virtual double gain(double theta_rad) const = 0;

    /// Peak (boresight) power gain.
    [[nodiscard]] virtual double peak_gain() const = 0;
};

/// Ideal isotropic radiator (0 dBi).
class isotropic_element final : public element {
public:
    [[nodiscard]] double gain(double) const override { return 1.0; }
    [[nodiscard]] double peak_gain() const override { return 1.0; }
};

/// Microstrip patch approximated by the cos^q model. q ~= 1.3 and peak
/// 6.5 dBi match a typical mmWave patch on thin substrate.
class patch_element final : public element {
public:
    explicit patch_element(double peak_gain_dbi = 6.5, double exponent = 1.3);

    [[nodiscard]] double gain(double theta_rad) const override;
    [[nodiscard]] double peak_gain() const override { return peak_linear_; }

private:
    double peak_linear_;
    double exponent_;
};

} // namespace mmtag::antenna
