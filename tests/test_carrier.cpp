#include <gtest/gtest.h>

#include <random>

#include "mmtag/dsp/carrier_recovery.hpp"

namespace mmtag::dsp {
namespace {

cvec random_psk(std::size_t count, std::size_t m, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> dist(0, m - 1);
    cvec symbols(count);
    for (auto& s : symbols) {
        s = std::polar(1.0, two_pi * static_cast<double>(dist(rng)) / static_cast<double>(m));
    }
    return symbols;
}

TEST(carrier, data_aided_frequency_estimate)
{
    const cvec pilots = random_psk(128, 4, 2);
    cvec received(pilots.size());
    const double cfo = 0.003; // cycles/sample
    for (std::size_t i = 0; i < pilots.size(); ++i) {
        received[i] = pilots[i] * std::polar(1.0, two_pi * cfo * static_cast<double>(i));
    }
    EXPECT_NEAR(estimate_frequency_offset(received, pilots), cfo, 1e-6);
}

} // namespace
} // namespace mmtag::dsp
