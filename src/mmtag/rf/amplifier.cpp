#include "mmtag/rf/amplifier.hpp"

#include <stdexcept>

#include "mmtag/rf/noise.hpp"

namespace mmtag::rf {

// Signals are complex baseband voltages across a 1-ohm reference, so
// instantaneous power is |x|^2 watts.

lna::lna(const config& cfg, std::uint64_t seed) : cfg_(cfg), rng_(seed)
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

cf64 lna::process(cf64 input)
{
    const cf64 noise{noise_sigma_ * gaussian_(rng_), noise_sigma_ * gaussian_(rng_)};
    return voltage_gain_ * (input + noise);
}

cvec lna::process(std::span<const cf64> input)
{
    cvec out;
    out.reserve(input.size());
    for (cf64 x : input) out.push_back(process(x));
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
