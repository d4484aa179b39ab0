// Radix-2 iterative FFT with cached twiddle plans, plus spectrum helpers.
#pragma once

#include <cstddef>
#include <span>

#include "mmtag/common.hpp"

namespace mmtag::dsp {

/// Returns true when n is a power of two (n >= 1).
[[nodiscard]] bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n (n >= 1).
[[nodiscard]] std::size_t next_power_of_two(std::size_t n);

/// Pre-planned radix-2 FFT of a fixed power-of-two size.
///
/// The plan caches the bit-reversal permutation and twiddle factors so that
/// repeated transforms of the same size (the common case in streaming DSP)
/// cost no setup work.
class fft_plan {
public:
    /// Creates a plan for transforms of length `size` (power of two, >= 1).
    explicit fft_plan(std::size_t size);

    [[nodiscard]] std::size_t size() const { return size_; }

    /// In-place forward DFT: X[k] = sum_n x[n] exp(-j 2 pi n k / N).
    void forward(std::span<cf64> data) const;

    /// In-place inverse DFT including the 1/N normalization.
    void inverse(std::span<cf64> data) const;

private:
    void transform(std::span<cf64> data, bool invert) const;

    std::size_t size_;
    std::vector<std::size_t> bit_reverse_;
    cvec twiddles_; // exp(-j 2 pi k / N) for k in [0, N/2)
};

/// One-shot forward FFT; input length must be a power of two.
[[nodiscard]] cvec fft(std::span<const cf64> input);

/// One-shot inverse FFT (normalized); input length must be a power of two.
[[nodiscard]] cvec ifft(std::span<const cf64> input);

/// Power spectrum |X[k]|^2 / N of `input` (zero-padded to a power of two).
[[nodiscard]] rvec power_spectrum(std::span<const cf64> input);

} // namespace mmtag::dsp
