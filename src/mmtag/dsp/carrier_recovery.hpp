// Carrier recovery: a data-aided frequency estimator for preamble-equipped
// bursts.
#pragma once

#include <span>

#include "mmtag/common.hpp"

namespace mmtag::dsp {

/// Data-aided estimate of a constant frequency offset (cycles/sample at the
/// symbol rate) from pilot phase slope via linear regression.
[[nodiscard]] double estimate_frequency_offset(std::span<const cf64> received,
                                               std::span<const cf64> pilots);

} // namespace mmtag::dsp
