#include <gtest/gtest.h>

#include <random>

#include "mmtag/dsp/estimators.hpp"

namespace mmtag::dsp {
namespace {

TEST(estimators, mean_power_and_rms)
{
    const cvec x{{3.0, 4.0}, {0.0, 0.0}}; // |3+4j|^2 = 25
    EXPECT_DOUBLE_EQ(mean_power(x), 12.5);
    EXPECT_DOUBLE_EQ(rms(x), std::sqrt(12.5));
    EXPECT_THROW((void)mean_power(cvec{}), std::invalid_argument);
}

TEST(estimators, evm_known_value)
{
    const cvec reference{{1.0, 0.0}, {-1.0, 0.0}};
    const cvec received{{1.1, 0.0}, {-0.9, 0.0}};
    // error power = 0.01 + 0.01, ref power = 2 -> EVM = sqrt(0.02/2) = 0.1
    EXPECT_NEAR(evm_rms(received, reference), 0.1, 1e-12);
    EXPECT_NEAR(evm_db(received, reference), -20.0, 1e-9);
}

TEST(estimators, snr_estimate_matches_injected_noise)
{
    std::mt19937_64 rng(11);
    std::normal_distribution<double> g(0.0, 1.0);
    const double snr_db_true = 15.0;
    const double noise_sigma = std::sqrt(0.5 * std::pow(10.0, -snr_db_true / 10.0));
    cvec reference(20000);
    cvec received(reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        reference[i] = std::polar(1.0, two_pi * 0.01 * static_cast<double>(i));
        received[i] = reference[i] * std::polar(1.3, 0.4) + // arbitrary complex gain
                      cf64{noise_sigma * g(rng), noise_sigma * g(rng)} * 1.3;
    }
    EXPECT_NEAR(snr_estimate_db(received, reference), snr_db_true, 0.3);
}

TEST(estimators, running_stats_welford)
{
    running_stats stats;
    const rvec values{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    for (double v : values) stats.add(v);
    EXPECT_EQ(stats.count(), values.size());
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12); // sample variance
    EXPECT_THROW((void)running_stats{}.mean(), std::logic_error);
}

} // namespace
} // namespace mmtag::dsp
