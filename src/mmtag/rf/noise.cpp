#include "mmtag/rf/noise.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace mmtag::rf {

double thermal_noise_power(double bandwidth_hz, double kelvin)
{
    if (bandwidth_hz <= 0.0) throw std::invalid_argument("thermal_noise_power: bandwidth <= 0");
    if (kelvin <= 0.0) throw std::invalid_argument("thermal_noise_power: temperature <= 0");
    return boltzmann * kelvin * bandwidth_hz;
}

awgn_source::awgn_source(double power_watt, std::uint64_t seed)
    : power_(power_watt), gaussian_(seed)
{
    if (power_watt < 0.0) throw std::invalid_argument("awgn_source: power must be >= 0");
}

void awgn_source::add_to(std::span<cf64> buffer)
{
    const double sigma = std::sqrt(power_ / 2.0);
    constexpr std::size_t chunk = gaussian_source::chunk_draws / 2; // samples per fill
    std::array<double, 2 * chunk> draws;
    for (std::size_t start = 0; start < buffer.size(); start += chunk) {
        const std::size_t count = std::min(chunk, buffer.size() - start);
        gaussian_.fill(std::span(draws).first(2 * count));
        // I takes the first draw of each pair, Q the second.
        for (std::size_t i = 0; i < count; ++i) {
            buffer[start + i] += cf64{sigma * draws[2 * i], sigma * draws[2 * i + 1]};
        }
    }
}

cvec awgn_source::apply(std::span<const cf64> input)
{
    cvec out(input.begin(), input.end());
    add_to(out);
    return out;
}

} // namespace mmtag::rf
