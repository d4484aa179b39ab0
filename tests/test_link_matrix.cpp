// Full-link configuration matrix: every (modulation x FEC) pair that the
// rate ladder can select must deliver frames cleanly at short range through
// the complete chain. Parameterized so a failure names its exact cell.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "mmtag/core/link_simulator.hpp"
#include "mmtag/phy/bitio.hpp"

namespace mmtag::phy {

/// Prints the pair by name: gtest's default prints the struct's raw bytes,
/// padding included, which would put uninitialised bytes into test names.
void PrintTo(const mcs& m, std::ostream* os)
{
    *os << modulation_name(m.scheme) << ' ' << fec_mode_name(m.fec);
}

} // namespace mmtag::phy

namespace mmtag::core {
namespace {

std::string case_name(const ::testing::TestParamInfo<phy::mcs>& info)
{
    std::string name = phy::modulation_name(info.param.scheme) + "_" +
                       phy::fec_mode_name(info.param.fec);
    for (auto& c : name) {
        if (c == '-' || c == '/') c = '_';
    }
    return name;
}

class link_matrix : public ::testing::TestWithParam<phy::mcs> {
protected:
    static system_config scenario(const phy::mcs& param)
    {
        auto cfg = default_scenario();
        cfg.sample_rate_hz = 50e6;
        cfg.symbol_rate_hz = 5e6;
        cfg.transmitter.sample_rate_hz = cfg.sample_rate_hz;
        cfg.receiver.sample_rate_hz = cfg.sample_rate_hz;
        cfg.receiver.samples_per_symbol = 10;
        cfg.receiver.lna.bandwidth_hz = cfg.sample_rate_hz;
        cfg.modulator.sample_rate_hz = cfg.sample_rate_hz;
        cfg.modulator.frame.scheme = param.scheme;
        cfg.modulator.frame.fec = param.fec;
        cfg.receiver.frame = cfg.modulator.frame;
        return cfg;
    }
};

TEST_P(link_matrix, clean_delivery_at_short_range)
{
    link_simulator sim(scenario(GetParam()));
    const auto report = sim.run_trials(4, 40);
    EXPECT_DOUBLE_EQ(report.per, 0.0);
    EXPECT_DOUBLE_EQ(report.ber, 0.0);
}

TEST_P(link_matrix, goodput_matches_spectral_efficiency)
{
    const auto cfg = scenario(GetParam());
    link_simulator sim(cfg);
    const auto report = sim.run_trials(3, 64);
    ASSERT_DOUBLE_EQ(report.per, 0.0);
    // Goodput = payload bits / airtime; airtime includes the 143-symbol
    // preamble, header, FEC expansion and guards, so it lands below the raw
    // info rate — by up to ~3.5x for dense constellations whose 64-byte
    // payload spans few symbols relative to the fixed overhead.
    const double info_rate = GetParam().efficiency() * cfg.symbol_rate_hz;
    EXPECT_LT(report.goodput_bps, info_rate);
    EXPECT_GT(report.goodput_bps, info_rate / 3.5);
}

INSTANTIATE_TEST_SUITE_P(
    all_pairs, link_matrix,
    ::testing::Values(phy::mcs{phy::modulation::bpsk, phy::fec_mode::uncoded},
                      phy::mcs{phy::modulation::bpsk, phy::fec_mode::conv_half},
                      phy::mcs{phy::modulation::bpsk, phy::fec_mode::conv_two_thirds},
                      phy::mcs{phy::modulation::bpsk, phy::fec_mode::conv_three_quarters},
                      phy::mcs{phy::modulation::qpsk, phy::fec_mode::uncoded},
                      phy::mcs{phy::modulation::qpsk, phy::fec_mode::conv_half},
                      phy::mcs{phy::modulation::qpsk, phy::fec_mode::conv_two_thirds},
                      phy::mcs{phy::modulation::qpsk, phy::fec_mode::conv_three_quarters},
                      phy::mcs{phy::modulation::psk8, phy::fec_mode::uncoded},
                      phy::mcs{phy::modulation::psk8, phy::fec_mode::conv_half},
                      phy::mcs{phy::modulation::psk8, phy::fec_mode::conv_two_thirds},
                      phy::mcs{phy::modulation::psk8, phy::fec_mode::conv_three_quarters},
                      phy::mcs{phy::modulation::psk16, phy::fec_mode::uncoded},
                      phy::mcs{phy::modulation::psk16, phy::fec_mode::conv_half},
                      phy::mcs{phy::modulation::psk16, phy::fec_mode::conv_two_thirds},
                      phy::mcs{phy::modulation::psk16, phy::fec_mode::conv_three_quarters}),
    case_name);

} // namespace
} // namespace mmtag::core
