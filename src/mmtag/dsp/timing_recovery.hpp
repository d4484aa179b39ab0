// Burst-mode symbol timing: a max-energy brute-force offset search.
#pragma once

#include <cstddef>
#include <span>

#include "mmtag/common.hpp"

namespace mmtag::dsp {

/// Burst-mode timing search: picks the sampling offset in [0, sps) that
/// maximizes average symbol energy after integrate-and-dump. Returns the
/// offset; cheap and robust for packetized backscatter frames.
[[nodiscard]] std::size_t best_symbol_offset(std::span<const cf64> samples,
                                             std::size_t samples_per_symbol);

} // namespace mmtag::dsp
