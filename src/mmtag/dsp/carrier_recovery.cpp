#include "mmtag/dsp/carrier_recovery.hpp"

#include <stdexcept>

namespace mmtag::dsp {

double estimate_frequency_offset(std::span<const cf64> received, std::span<const cf64> pilots)
{
    if (received.size() != pilots.size() || received.size() < 2) {
        throw std::invalid_argument("estimate_frequency_offset: need >= 2 matched samples");
    }
    // Phase increment between consecutive de-modulated pilots; averaging the
    // one-lag autocorrelation is robust to phase wrapping.
    cf64 acc{};
    for (std::size_t i = 1; i < received.size(); ++i) {
        const cf64 current = received[i] * std::conj(pilots[i]);
        const cf64 previous = received[i - 1] * std::conj(pilots[i - 1]);
        acc += current * std::conj(previous);
    }
    return std::arg(acc) / two_pi;
}

} // namespace mmtag::dsp
