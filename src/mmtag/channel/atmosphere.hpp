// Atmospheric attenuation at mmWave: piecewise oxygen/water-vapor specific
// attenuation (ITU-R P.676 shape, tabulated) and simple rain attenuation
// (ITU-R P.838 power-law coefficients at selected bands).
#pragma once

#include "mmtag/common.hpp"

namespace mmtag::channel {

/// Clear-air specific attenuation [dB/km] at `frequency_hz` (1-100 GHz),
/// standard pressure/temperature. Captures the 22 GHz water line and the
/// 60 GHz oxygen peak; interpolated from ITU-R P.676 tabulations.
[[nodiscard]] double gaseous_attenuation_db_per_km(double frequency_hz);

/// Rain specific attenuation [dB/km] for `rain_rate_mm_per_hr` at
/// `frequency_hz` via gamma = k R^alpha (ITU-R P.838 coefficients).
[[nodiscard]] double rain_attenuation_db_per_km(double frequency_hz, double rain_rate_mm_per_hr);

/// Total atmospheric loss in dB over a one-way path of `distance_m` whose
/// specific attenuation (gaseous plus rain) is `db_per_km`.
[[nodiscard]] double atmospheric_loss_db(double distance_m, double db_per_km);

} // namespace mmtag::channel
