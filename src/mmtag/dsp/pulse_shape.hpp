// Matched filtering for the rectangular pulses a switching tag produces.
#pragma once

#include <cstddef>
#include <span>

#include "mmtag/common.hpp"

namespace mmtag::dsp {

/// Integrate-and-dump matched filter for rectangular pulses: averages each
/// symbol period starting at `offset` samples.
[[nodiscard]] cvec integrate_and_dump(std::span<const cf64> samples,
                                      std::size_t samples_per_symbol, std::size_t offset = 0);

} // namespace mmtag::dsp
