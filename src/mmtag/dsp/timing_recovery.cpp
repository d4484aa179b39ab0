#include "mmtag/dsp/timing_recovery.hpp"

#include <stdexcept>

#include "mmtag/dsp/pulse_shape.hpp"

namespace mmtag::dsp {

std::size_t best_symbol_offset(std::span<const cf64> samples, std::size_t samples_per_symbol)
{
    if (samples_per_symbol == 0) {
        throw std::invalid_argument("best_symbol_offset: samples_per_symbol must be >= 1");
    }
    std::size_t best = 0;
    double best_metric = -1.0;
    for (std::size_t offset = 0; offset < samples_per_symbol; ++offset) {
        const cvec symbols = integrate_and_dump(samples, samples_per_symbol, offset);
        double energy = 0.0;
        for (cf64 s : symbols) energy += std::norm(s);
        if (!symbols.empty()) energy /= static_cast<double>(symbols.size());
        if (energy > best_metric) {
            best_metric = energy;
            best = offset;
        }
    }
    return best;
}

} // namespace mmtag::dsp
