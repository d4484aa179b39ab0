#include <gtest/gtest.h>

#include "mmtag/dsp/fft.hpp"
#include "mmtag/dsp/nco.hpp"

namespace mmtag::dsp {
namespace {

std::size_t dominant_bin(std::span<const cf64> x)
{
    const rvec spectrum = power_spectrum(x);
    std::size_t best = 0;
    for (std::size_t i = 1; i < spectrum.size(); ++i) {
        if (spectrum[i] > spectrum[best]) best = i;
    }
    return best;
}

TEST(nco, generates_requested_frequency)
{
    nco osc(0.125); // exactly bin 128 of a 1024-point FFT
    const cvec tone = osc.generate(1024);
    EXPECT_EQ(dominant_bin(tone), 128u);
}

TEST(nco, unit_amplitude)
{
    nco osc(0.03, 1.0);
    for (int i = 0; i < 100; ++i) {
        EXPECT_NEAR(std::abs(osc.step()), 1.0, 1e-12);
    }
}

TEST(nco, negative_frequency_conjugates)
{
    nco pos(0.1);
    nco neg(-0.1);
    for (int i = 0; i < 50; ++i) {
        const cf64 a = pos.step();
        const cf64 b = neg.step();
        EXPECT_NEAR(std::abs(a - std::conj(b)), 0.0, 1e-12);
    }
}

TEST(nco, mix_shifts_spectrum)
{
    nco source(10.0 / 256.0);
    const cvec tone = source.generate(256);
    const cvec shifted = frequency_shift(tone, 20.0 / 256.0);
    EXPECT_EQ(dominant_bin(shifted), 30u);
}

TEST(nco, phase_adjust_applies_offset)
{
    nco osc(0.0, 0.0);
    osc.adjust_phase(pi / 2.0);
    const cf64 v = osc.step();
    EXPECT_NEAR(v.real(), 0.0, 1e-12);
    EXPECT_NEAR(v.imag(), 1.0, 1e-12);
}

} // namespace
} // namespace mmtag::dsp
