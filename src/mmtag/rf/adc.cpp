#include "mmtag/rf/adc.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmtag::rf {

adc::adc(const config& cfg) : cfg_(cfg)
{
    if (cfg.bits < 1 || cfg.bits > 24) throw std::invalid_argument("adc: bits must be in [1, 24]");
    if (cfg.full_scale <= 0.0) throw std::invalid_argument("adc: full scale must be > 0");
    step_ = 2.0 * cfg.full_scale / static_cast<double>(1u << cfg.bits);
}

double adc::quantize_rail(double value) const
{
    const double clipped = std::clamp(value, -cfg_.full_scale, cfg_.full_scale - step_);
    // Mid-rise: code centers at (k + 0.5) * step.
    return (std::floor(clipped / step_) + 0.5) * step_;
}

cf64 adc::sample(cf64 input) const
{
    return {quantize_rail(input.real()), quantize_rail(input.imag())};
}

cvec adc::sample(std::span<const cf64> input) const
{
    cvec out;
    out.reserve(input.size());
    for (cf64 x : input) out.push_back(sample(x));
    return out;
}

} // namespace mmtag::rf
