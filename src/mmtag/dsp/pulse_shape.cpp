#include "mmtag/dsp/pulse_shape.hpp"

#include <stdexcept>

namespace mmtag::dsp {

cvec integrate_and_dump(std::span<const cf64> samples, std::size_t samples_per_symbol,
                        std::size_t offset)
{
    if (samples_per_symbol == 0) {
        throw std::invalid_argument("integrate_and_dump: samples_per_symbol must be >= 1");
    }
    cvec out;
    if (offset >= samples.size()) return out;
    const std::size_t usable = samples.size() - offset;
    out.reserve(usable / samples_per_symbol);
    for (std::size_t start = offset; start + samples_per_symbol <= samples.size();
         start += samples_per_symbol) {
        cf64 acc{};
        for (std::size_t k = 0; k < samples_per_symbol; ++k) acc += samples[start + k];
        out.push_back(acc / static_cast<double>(samples_per_symbol));
    }
    return out;
}

} // namespace mmtag::dsp
