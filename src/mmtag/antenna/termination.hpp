// Reflection-coefficient arithmetic for antenna/switch terminations: the
// microwave theory that turns "connect the port to a different stub" into a
// complex multiplier on the reflected wave.
#pragma once

#include "mmtag/common.hpp"

namespace mmtag::antenna {

/// Canonical terminations.
[[nodiscard]] cf64 gamma_short();   ///< Gamma = -1
[[nodiscard]] cf64 gamma_matched(); ///< Gamma =  0

/// Input reflection coefficient looking into a lossless line of electrical
/// length `beta_length_rad` terminated in `gamma_load`:
/// Gamma_in = Gamma_L * exp(-j 2 beta l).
[[nodiscard]] cf64 line_transform(cf64 gamma_load, double beta_length_rad);

/// Same with line loss `alpha_db` (one-way) applied over the round trip.
[[nodiscard]] cf64 line_transform_lossy(cf64 gamma_load, double beta_length_rad, double alpha_db);

} // namespace mmtag::antenna
