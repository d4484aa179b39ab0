#include "mmtag/dsp/estimators.hpp"

#include <stdexcept>

namespace mmtag::dsp {

double mean_power(std::span<const cf64> samples)
{
    if (samples.empty()) throw std::invalid_argument("mean_power: empty input");
    double acc = 0.0;
    for (cf64 x : samples) acc += std::norm(x);
    return acc / static_cast<double>(samples.size());
}

double rms(std::span<const cf64> samples)
{
    return std::sqrt(mean_power(samples));
}

double evm_rms(std::span<const cf64> received, std::span<const cf64> reference)
{
    if (received.size() != reference.size() || received.empty()) {
        throw std::invalid_argument("evm_rms: size mismatch or empty input");
    }
    double error_power = 0.0;
    double reference_power = 0.0;
    for (std::size_t i = 0; i < received.size(); ++i) {
        error_power += std::norm(received[i] - reference[i]);
        reference_power += std::norm(reference[i]);
    }
    if (reference_power <= 0.0) throw std::invalid_argument("evm_rms: zero-power reference");
    return std::sqrt(error_power / reference_power);
}

double evm_db(std::span<const cf64> received, std::span<const cf64> reference)
{
    return 20.0 * std::log10(evm_rms(received, reference));
}

double snr_estimate_db(std::span<const cf64> received, std::span<const cf64> reference)
{
    if (received.size() != reference.size() || received.empty()) {
        throw std::invalid_argument("snr_estimate_db: size mismatch or empty input");
    }
    // Least-squares complex gain g = <r, s> / <s, s>.
    cf64 cross{};
    double reference_power = 0.0;
    for (std::size_t i = 0; i < received.size(); ++i) {
        cross += received[i] * std::conj(reference[i]);
        reference_power += std::norm(reference[i]);
    }
    if (reference_power <= 0.0) {
        throw std::invalid_argument("snr_estimate_db: zero-power reference");
    }
    const cf64 gain = cross / reference_power;
    double signal_power = 0.0;
    double noise_power = 0.0;
    for (std::size_t i = 0; i < received.size(); ++i) {
        const cf64 fitted = gain * reference[i];
        signal_power += std::norm(fitted);
        noise_power += std::norm(received[i] - fitted);
    }
    if (noise_power <= 0.0) return 200.0; // effectively noiseless
    return to_db(signal_power / noise_power);
}

void running_stats::add(double value)
{
    ++count_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
}

double running_stats::mean() const
{
    if (count_ == 0) throw std::logic_error("running_stats: no samples");
    return mean_;
}

double running_stats::variance() const
{
    if (count_ < 2) return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double running_stats::standard_deviation() const
{
    return std::sqrt(variance());
}

} // namespace mmtag::dsp
