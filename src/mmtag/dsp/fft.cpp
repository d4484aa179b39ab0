#include "mmtag/dsp/fft.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmtag::dsp {

bool is_power_of_two(std::size_t n)
{
    return n >= 1 && (n & (n - 1)) == 0;
}

std::size_t next_power_of_two(std::size_t n)
{
    if (n <= 1) return 1;
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

fft_plan::fft_plan(std::size_t size) : size_(size)
{
    if (!is_power_of_two(size)) {
        throw std::invalid_argument("fft_plan: size must be a power of two");
    }
    bit_reverse_.resize(size_);
    std::size_t log2n = 0;
    while ((std::size_t{1} << log2n) < size_) ++log2n;
    for (std::size_t i = 0; i < size_; ++i) {
        std::size_t reversed = 0;
        for (std::size_t bit = 0; bit < log2n; ++bit) {
            if (i & (std::size_t{1} << bit)) reversed |= std::size_t{1} << (log2n - 1 - bit);
        }
        bit_reverse_[i] = reversed;
    }
    twiddles_.resize(size_ / 2);
    for (std::size_t k = 0; k < size_ / 2; ++k) {
        const double angle = -two_pi * static_cast<double>(k) / static_cast<double>(size_);
        twiddles_[k] = std::polar(1.0, angle);
    }
}

void fft_plan::forward(std::span<cf64> data) const
{
    transform(data, false);
}

void fft_plan::inverse(std::span<cf64> data) const
{
    transform(data, true);
    const double scale = 1.0 / static_cast<double>(size_);
    for (auto& x : data) x *= scale;
}

void fft_plan::transform(std::span<cf64> data, bool invert) const
{
    if (data.size() != size_) {
        throw std::invalid_argument("fft_plan: data length does not match plan size");
    }
    for (std::size_t i = 0; i < size_; ++i) {
        const std::size_t j = bit_reverse_[i];
        if (i < j) std::swap(data[i], data[j]);
    }
    for (std::size_t len = 2; len <= size_; len <<= 1) {
        const std::size_t half = len / 2;
        const std::size_t stride = size_ / len;
        for (std::size_t start = 0; start < size_; start += len) {
            for (std::size_t k = 0; k < half; ++k) {
                cf64 w = twiddles_[k * stride];
                if (invert) w = std::conj(w);
                const cf64 even = data[start + k];
                const cf64 odd = data[start + k + half] * w;
                data[start + k] = even + odd;
                data[start + k + half] = even - odd;
            }
        }
    }
}

cvec fft(std::span<const cf64> input)
{
    cvec out(input.begin(), input.end());
    fft_plan(out.size()).forward(out);
    return out;
}

cvec ifft(std::span<const cf64> input)
{
    cvec out(input.begin(), input.end());
    fft_plan(out.size()).inverse(out);
    return out;
}

rvec power_spectrum(std::span<const cf64> input)
{
    if (input.empty()) return {};
    const std::size_t padded = next_power_of_two(input.size());
    cvec x(input.begin(), input.end());
    x.resize(padded);
    fft_plan(padded).forward(x);
    rvec spectrum(padded);
    const double scale = 1.0 / static_cast<double>(padded);
    for (std::size_t k = 0; k < padded; ++k) spectrum[k] = std::norm(x[k]) * scale;
    return spectrum;
}

} // namespace mmtag::dsp
