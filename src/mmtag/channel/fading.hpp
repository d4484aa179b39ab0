// Small-scale fading: Rician/Rayleigh block fading.
#pragma once

#include <random>

#include "mmtag/common.hpp"

namespace mmtag::channel {

/// Draws one Rician block-fading field coefficient with mean power 1.
/// `k_factor_db` is the LOS-to-scatter power ratio; k -> -inf gives Rayleigh,
/// k -> +inf gives a pure LOS (unit) coefficient.
[[nodiscard]] cf64 rician_coefficient(double k_factor_db, std::mt19937_64& rng);

} // namespace mmtag::channel
