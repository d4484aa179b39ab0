// Van Atta retro-reflective array — the structure that lets a zero-power tag
// reflect a narrow beam straight back at the AP regardless of its own
// orientation.
//
// Physics: elements are connected in mirror pairs (n <-> N-1-n) by equal
// electrical-length lines. A plane wave from angle theta arrives at element n
// with phase k*d*n*sin(theta); the pairing re-radiates that phase from the
// mirrored position, producing a conjugated aperture phase, i.e. a beam back
// toward theta. The re-radiated wave additionally passes through the common
// termination, whose reflection coefficient Gamma scales/rotates it — which
// is exactly the handle load modulation uses.
#pragma once

#include <cstddef>
#include <memory>

#include "mmtag/common.hpp"
#include "mmtag/antenna/element.hpp"

namespace mmtag::antenna {

class van_atta_array {
public:
    struct config {
        std::size_t element_count = 8;       ///< must be even (mirror pairs)
        double spacing_wavelengths = 0.5;
        double line_loss_db = 1.0;           ///< one-way loss of pair lines
    };

    van_atta_array(const config& cfg, std::shared_ptr<const element> radiator);

    [[nodiscard]] std::size_t element_count() const { return cfg_.element_count; }

    /// Complex bistatic re-radiation coefficient: relative field coupling
    /// from a wave incident at `theta_in` to the far field at `theta_out`,
    /// through a termination of reflection coefficient `gamma`.
    [[nodiscard]] cf64 bistatic_coupling(double theta_in, double theta_out, cf64 gamma) const;

    /// Monostatic backscatter gain: the product of effective receive and
    /// re-transmit power gains toward `theta` with termination `gamma`
    /// (|Gamma|=1 short). This is the G_tag^2-equivalent term of the radar
    /// link budget.
    [[nodiscard]] double monostatic_gain(double theta_rad, cf64 gamma = cf64{-1.0, 0.0}) const;

    /// Monostatic gain pattern over [-pi/2, pi/2].
    [[nodiscard]] rvec monostatic_pattern(std::size_t points,
                                          cf64 gamma = cf64{-1.0, 0.0}) const;

    /// Angular field of view over which monostatic gain stays within
    /// `droop_db` of its peak [rad].
    [[nodiscard]] double field_of_view(double droop_db) const;

private:
    config cfg_;
    std::shared_ptr<const element> radiator_;
    double line_amplitude_; // one-way line loss as field ratio
};

/// Baseline reflector: the same aperture *without* Van Atta pairing (each
/// element re-radiates its own received signal, like a flat conducting
/// plate). Specular, not retro-directive — used as the R1/R7 comparison.
class flat_plate_reflector {
public:
    flat_plate_reflector(std::size_t element_count, double spacing_wavelengths,
                         std::shared_ptr<const element> radiator);

    [[nodiscard]] cf64 bistatic_coupling(double theta_in, double theta_out, cf64 gamma) const;
    [[nodiscard]] double monostatic_gain(double theta_rad, cf64 gamma = cf64{-1.0, 0.0}) const;

private:
    std::size_t element_count_;
    double spacing_;
    std::shared_ptr<const element> radiator_;
};

} // namespace mmtag::antenna
