// ADC model: full-scale clipping + uniform mid-rise quantization on I and Q.
#pragma once

#include <cstdint>
#include <span>

#include "mmtag/common.hpp"

namespace mmtag::rf {

class adc {
public:
    struct config {
        unsigned bits = 10;
        double full_scale = 1.0; ///< clip level per rail [V]
    };

    explicit adc(const config& cfg);

    [[nodiscard]] unsigned bits() const { return cfg_.bits; }
    [[nodiscard]] double full_scale() const { return cfg_.full_scale; }

    [[nodiscard]] cf64 sample(cf64 input) const;
    [[nodiscard]] cvec sample(std::span<const cf64> input) const;

private:
    [[nodiscard]] double quantize_rail(double value) const;

    config cfg_;
    double step_;
};

} // namespace mmtag::rf
