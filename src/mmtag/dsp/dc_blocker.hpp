// Single-pole DC removal filter — the first stage of self-interference
// suppression at the AP (unmodulated leakage lands exactly at DC after
// self-coherent downconversion).
#pragma once

#include <span>

#include "mmtag/common.hpp"

namespace mmtag::dsp {

/// y[n] = x[n] - x[n-1] + r * y[n-1]; `r` close to 1 gives a narrow notch at
/// DC with near-unity passband gain.
class dc_blocker {
public:
    explicit dc_blocker(double pole = 0.999);

    [[nodiscard]] cf64 process(cf64 input);
    [[nodiscard]] cvec process(std::span<const cf64> input);

private:
    double pole_;
    cf64 previous_input_{};
    cf64 previous_output_{};
};

/// Subtracts the buffer mean (block DC estimate) — the non-streaming variant.
[[nodiscard]] cvec remove_mean(std::span<const cf64> input);

} // namespace mmtag::dsp
