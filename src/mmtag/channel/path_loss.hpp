// Propagation loss models: Friis free space and the two-way backscatter
// (radar-equation) budget.
#pragma once

#include "mmtag/common.hpp"

namespace mmtag::channel {

/// Free-space path loss (power ratio, >= 1) over `distance_m` at
/// `frequency_hz`. Friis: (4 pi d / lambda)^2.
[[nodiscard]] double free_space_path_loss(double distance_m, double frequency_hz);

/// One-way received power [W] between isotropic-referenced antennas:
/// Prx = Ptx Gtx Grx / FSPL.
[[nodiscard]] double one_way_received_power(double tx_power_w, double tx_gain, double rx_gain,
                                            double distance_m, double frequency_hz);

/// Two-way (backscatter) received power [W]:
/// Prx = Ptx Gtx Grx Gb lambda^4 / ((4 pi)^4 d^4), where Gb is the tag's
/// monostatic backscatter gain (|Gamma|^2 folded in by the caller).
[[nodiscard]] double backscatter_received_power(double tx_power_w, double tx_gain, double rx_gain,
                                                double tag_backscatter_gain, double distance_m,
                                                double frequency_hz);

} // namespace mmtag::channel
