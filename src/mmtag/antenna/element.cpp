#include "mmtag/antenna/element.hpp"

#include <stdexcept>

namespace mmtag::antenna {

patch_element::patch_element(double peak_gain_dbi, double exponent)
    : peak_linear_(from_db(peak_gain_dbi)), exponent_(exponent)
{
    if (exponent <= 0.0) throw std::invalid_argument("patch_element: exponent must be > 0");
}

double patch_element::gain(double theta_rad) const
{
    const double c = std::cos(theta_rad);
    if (c <= 0.0) return 0.0; // no radiation behind the ground plane
    return peak_linear_ * std::pow(c, 2.0 * exponent_);
}

} // namespace mmtag::antenna
