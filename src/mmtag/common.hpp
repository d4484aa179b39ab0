// Common scalar/vector types, physical constants, and unit helpers shared by
// every mmtag subsystem.
#pragma once

#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

namespace mmtag {

using cf64 = std::complex<double>;
using cvec = std::vector<cf64>;
using rvec = std::vector<double>;

inline constexpr double pi = std::numbers::pi;
inline constexpr double two_pi = 2.0 * std::numbers::pi;

/// Speed of light in vacuum [m/s].
inline constexpr double speed_of_light = 299'792'458.0;

/// Boltzmann constant [J/K].
inline constexpr double boltzmann = 1.380'649e-23;

/// Standard noise reference temperature [K].
inline constexpr double t0_kelvin = 290.0;

/// Thrown when a simulation is configured or driven outside its contract.
class simulation_error : public std::runtime_error {
public:
    explicit simulation_error(const std::string& what) : std::runtime_error(what) {}
};

/// Power ratio -> decibels. Requires ratio > 0.
[[nodiscard]] inline double to_db(double power_ratio)
{
    if (power_ratio <= 0.0) throw std::invalid_argument("to_db: ratio must be > 0");
    return 10.0 * std::log10(power_ratio);
}

/// Decibels -> power ratio.
[[nodiscard]] inline double from_db(double db) { return std::pow(10.0, db / 10.0); }

/// Absolute power [W] -> dBm.
[[nodiscard]] inline double watt_to_dbm(double watt) { return to_db(watt) + 30.0; }

/// dBm -> absolute power [W].
[[nodiscard]] inline double dbm_to_watt(double dbm) { return from_db(dbm - 30.0); }

/// Degrees -> radians.
[[nodiscard]] constexpr double deg_to_rad(double deg) { return deg * pi / 180.0; }

/// Radians -> degrees.
[[nodiscard]] constexpr double rad_to_deg(double rad) { return rad * 180.0 / pi; }

/// Wavelength [m] of a carrier at `frequency_hz`.
[[nodiscard]] inline double wavelength(double frequency_hz)
{
    if (frequency_hz <= 0.0) throw std::invalid_argument("wavelength: frequency must be > 0");
    return speed_of_light / frequency_hz;
}

/// Wrap an angle to (-pi, pi].
[[nodiscard]] inline double wrap_phase(double radians)
{
    // std::remainder returns any |x| < pi unchanged; skip its cost there.
    if (std::abs(radians) < pi) return radians;
    double wrapped = std::remainder(radians, two_pi);
    if (wrapped <= -pi) wrapped += two_pi;
    return wrapped;
}

} // namespace mmtag
