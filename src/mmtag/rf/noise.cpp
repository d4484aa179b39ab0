#include "mmtag/rf/noise.hpp"

#include <stdexcept>

namespace mmtag::rf {

double thermal_noise_power(double bandwidth_hz, double kelvin)
{
    if (bandwidth_hz <= 0.0) throw std::invalid_argument("thermal_noise_power: bandwidth <= 0");
    if (kelvin <= 0.0) throw std::invalid_argument("thermal_noise_power: temperature <= 0");
    return boltzmann * kelvin * bandwidth_hz;
}

awgn_source::awgn_source(double power_watt, std::uint64_t seed) : power_(power_watt), rng_(seed)
{
    if (power_watt < 0.0) throw std::invalid_argument("awgn_source: power must be >= 0");
}

cf64 awgn_source::sample()
{
    const double sigma = std::sqrt(power_ / 2.0);
    return {sigma * gaussian_(rng_), sigma * gaussian_(rng_)};
}

void awgn_source::add_to(std::span<cf64> buffer)
{
    for (auto& x : buffer) x += sample();
}

cvec awgn_source::apply(std::span<const cf64> input)
{
    cvec out(input.begin(), input.end());
    add_to(out);
    return out;
}

} // namespace mmtag::rf
