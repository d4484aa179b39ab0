// Signal-quality estimators: power, SNR, EVM, and related statistics.
#pragma once

#include <cstddef>
#include <span>

#include "mmtag/common.hpp"

namespace mmtag::dsp {

/// Mean power (second moment) of a complex buffer.
[[nodiscard]] double mean_power(std::span<const cf64> samples);

/// RMS amplitude.
[[nodiscard]] double rms(std::span<const cf64> samples);

/// Error vector magnitude (RMS, as a fraction of reference RMS) between
/// received symbols and their references.
[[nodiscard]] double evm_rms(std::span<const cf64> received, std::span<const cf64> reference);

/// EVM expressed in dB: 20 log10(evm_rms).
[[nodiscard]] double evm_db(std::span<const cf64> received, std::span<const cf64> reference);

/// Data-aided SNR estimate from matched received/reference symbol pairs:
/// projects out the complex gain, then compares signal to residual power.
[[nodiscard]] double snr_estimate_db(std::span<const cf64> received,
                                     std::span<const cf64> reference);

/// Running mean/variance accumulator (Welford).
class running_stats {
public:
    void add(double value);
    [[nodiscard]] std::size_t count() const { return count_; }
    [[nodiscard]] double mean() const;
    [[nodiscard]] double variance() const;
    [[nodiscard]] double standard_deviation() const;

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

} // namespace mmtag::dsp
