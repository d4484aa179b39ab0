#include "mmtag/rf/amplifier.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "mmtag/rf/noise.hpp"

namespace mmtag::rf {

// Signals are complex baseband voltages across a 1-ohm reference, so
// instantaneous power is |x|^2 watts.

lna::lna(const config& cfg, std::uint64_t seed) : cfg_(cfg), gaussian_(seed)
{
    if (cfg.bandwidth_hz <= 0.0) throw std::invalid_argument("lna: bandwidth <= 0");
    if (cfg.noise_figure_db < 0.0) throw std::invalid_argument("lna: noise figure < 0");
    voltage_gain_ = std::pow(10.0, cfg.gain_db / 20.0);
    noise_sigma_ = std::sqrt(input_referred_noise_power() / 2.0);
}

double lna::input_referred_noise_power() const
{
    const double noise_factor = from_db(cfg_.noise_figure_db);
    return (noise_factor - 1.0) * thermal_noise_power(cfg_.bandwidth_hz);
}

void lna::process_in_place(std::span<cf64> buffer)
{
    constexpr std::size_t chunk = gaussian_source::chunk_draws / 2; // samples per fill
    std::array<double, 2 * chunk> draws;
    for (std::size_t start = 0; start < buffer.size(); start += chunk) {
        const std::size_t count = std::min(chunk, buffer.size() - start);
        gaussian_.fill(std::span(draws).first(2 * count));
        // I takes the first draw of each pair, Q the second.
        for (std::size_t i = 0; i < count; ++i) {
            const cf64 noise{noise_sigma_ * draws[2 * i], noise_sigma_ * draws[2 * i + 1]};
            buffer[start + i] = voltage_gain_ * (buffer[start + i] + noise);
        }
    }
}

cvec lna::process(std::span<const cf64> input)
{
    cvec out(input.begin(), input.end());
    process_in_place(out);
    return out;
}

power_amplifier::power_amplifier(const config& cfg)
{
    voltage_gain_ = std::pow(10.0, cfg.gain_db / 20.0);
    saturation_amplitude_ = std::sqrt(dbm_to_watt(cfg.output_saturation_dbm));
}

double power_amplifier::gain(double amplitude) const
{
    const double driven = voltage_gain_ * amplitude;
    const double ratio = driven / saturation_amplitude_;
    constexpr double rapp_smoothness = 2.0; // Rapp p factor
    constexpr double p2 = 2.0 * rapp_smoothness;
    const double compressed = driven / std::pow(1.0 + std::pow(ratio, p2), 1.0 / p2);
    return compressed / amplitude;
}

cf64 power_amplifier::process(cf64 input) const
{
    const double amplitude = std::abs(input);
    if (amplitude < min_amplitude) return cf64{};
    return input * gain(amplitude);
}

} // namespace mmtag::rf
