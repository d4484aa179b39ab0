#include <gtest/gtest.h>

#include "mmtag/antenna/termination.hpp"
#include "mmtag/dsp/estimators.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/tag/energy_model.hpp"
#include "mmtag/tag/modulator.hpp"
#include "mmtag/tag/termination_bank.hpp"

namespace mmtag::tag {
namespace {

class bank_schemes : public ::testing::TestWithParam<phy::modulation> {};

TEST_P(bank_schemes, realizes_constellation_phases)
{
    termination_bank::config cfg;
    cfg.scheme = GetParam();
    cfg.stub_loss_db = 0.0;
    termination_bank bank(cfg);
    const std::size_t m = phy::constellation_size(GetParam());
    ASSERT_EQ(bank.state_count(), m);
    for (std::size_t p = 0; p < m; ++p) {
        const double target = two_pi * static_cast<double>(p) / static_cast<double>(m);
        const cf64 gamma = bank.gammas()[p];
        EXPECT_NEAR(std::abs(gamma), 1.0, 1e-9);
        EXPECT_NEAR(wrap_phase(std::arg(gamma) - target), 0.0, 1e-9) << "state " << p;
    }
}

TEST_P(bank_schemes, passivity)
{
    termination_bank::config cfg;
    cfg.scheme = GetParam();
    cfg.stub_loss_db = 0.5;
    termination_bank bank(cfg);
    for (const auto& gamma : bank.gammas()) {
        EXPECT_LE(std::abs(gamma), 1.0 + 1e-9); // a passive tag cannot amplify
    }
}

TEST_P(bank_schemes, state_for_symbol_round_trip)
{
    termination_bank::config cfg;
    cfg.scheme = GetParam();
    termination_bank bank(cfg);
    const cvec points = phy::constellation(GetParam());
    for (const auto& point : points) {
        const std::size_t state = bank.state_for_symbol(point);
        // The chosen state's Gamma must point along the requested symbol.
        const cf64 gamma = bank.gammas()[state];
        EXPECT_NEAR(wrap_phase(std::arg(gamma) - std::arg(point)), 0.0, 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(schemes, bank_schemes,
                         ::testing::Values(phy::modulation::bpsk, phy::modulation::qpsk,
                                           phy::modulation::psk8, phy::modulation::psk16));

TEST(termination_bank, absorb_state_is_matched)
{
    termination_bank bank{termination_bank::config{}};
    EXPECT_NEAR(std::abs(bank.gammas()[bank.absorb_state()]), 0.0, 1e-12);
    EXPECT_EQ(bank.throw_count(), bank.state_count() + 1);
    EXPECT_EQ(bank.state_for_symbol(cf64{}), bank.absorb_state());
}

TEST(termination_bank, loss_appears_in_evm)
{
    termination_bank::config lossless;
    lossless.stub_loss_db = 0.0;
    termination_bank a(lossless);
    termination_bank::config lossy;
    lossy.stub_loss_db = 1.0;
    termination_bank b(lossy);
    const auto evm = [](const termination_bank& bank) {
        const std::size_t m = bank.state_count();
        cvec ideal(m);
        for (std::size_t p = 0; p < m; ++p) {
            ideal[p] = std::polar(1.0, two_pi * static_cast<double>(p) / static_cast<double>(m));
        }
        return dsp::evm_rms(std::span<const cf64>(bank.gammas()).first(m), ideal);
    };
    EXPECT_LT(evm(a), 1e-9);
    EXPECT_GT(evm(b), 0.05);
}

/// Gamma of data state p before any fabrication error.
cf64 ideal_gamma(std::size_t p, std::size_t m, double stub_loss_db)
{
    const double target = two_pi * static_cast<double>(p) / static_cast<double>(m);
    return antenna::line_transform_lossy(antenna::gamma_short(),
                                         wrap_phase(pi - target) / 2.0, stub_loss_db);
}

TEST(termination_bank, zero_tolerance_yields_ideal_gammas)
{
    termination_bank::config cfg;
    cfg.scheme = phy::modulation::psk8;
    const termination_bank bank(cfg);
    for (std::size_t p = 0; p < bank.state_count(); ++p) {
        EXPECT_EQ(bank.gammas()[p], ideal_gamma(p, bank.state_count(), cfg.stub_loss_db))
            << "state " << p;
    }
}

backscatter_modulator::config modulator_config()
{
    backscatter_modulator::config cfg;
    cfg.sample_rate_hz = 250e6;
    cfg.symbol_rate_hz = 5e6;
    cfg.frame.scheme = phy::modulation::qpsk;
    cfg.frame.fec = phy::fec_mode::conv_half;
    cfg.guard_symbols = 4;
    return cfg;
}

TEST(modulator, waveform_length_and_guards)
{
    backscatter_modulator mod(modulator_config());
    const auto payload = phy::random_bytes(32, 1);
    const auto frame = mod.modulate(payload);
    const std::size_t sps = mod.samples_per_symbol();
    EXPECT_EQ(sps, 50u);
    EXPECT_EQ(frame.gamma.size(), frame.states.size() * sps);
    const std::size_t symbols = phy::build_frame(payload, modulator_config().frame).size();
    EXPECT_EQ(frame.states.size(), symbols + 8); // 2 * 4 guards
    // Guards are absorptive.
    EXPECT_NEAR(std::abs(frame.gamma.front()), 0.0, 0.05);
    EXPECT_NEAR(std::abs(frame.gamma.back()), 0.0, 0.05);
}

TEST(modulator, passivity_of_entire_waveform)
{
    backscatter_modulator mod(modulator_config());
    const auto frame = mod.modulate(phy::random_bytes(64, 2));
    for (const auto& g : frame.gamma) {
        EXPECT_LE(std::abs(g), 1.0 + 1e-9);
    }
}

TEST(modulator, transition_count_bounded_by_symbols)
{
    backscatter_modulator mod(modulator_config());
    const auto frame = mod.modulate(phy::random_bytes(64, 3));
    const std::size_t symbols = frame.states.size() - 8; // less 2 * 4 guards
    EXPECT_GT(frame.transitions, symbols / 4); // random data toggles
    EXPECT_LT(frame.transitions, frame.states.size());
}

TEST(modulator, rejects_symbol_rate_beyond_switch)
{
    auto cfg = modulator_config();
    cfg.rf_switch.rise_fall_time_s = 1e-6; // max 500 kHz
    EXPECT_THROW(backscatter_modulator{cfg}, simulation_error);
}

TEST(modulator, rejects_non_integer_sps)
{
    auto cfg = modulator_config();
    cfg.symbol_rate_hz = 3e6; // 250/3 not integer
    EXPECT_THROW(backscatter_modulator{cfg}, std::invalid_argument);
}

TEST(energy, per_mode_ordering)
{
    energy_model model;
    EXPECT_LT(model.sleep_power_w(), model.listen_power_w());
    EXPECT_LT(model.listen_power_w(), model.transmit_power_w(5e6, 0.75));
}

TEST(energy, transmit_power_scales_with_rate)
{
    energy_model model;
    const double slow = model.transmit_power_w(1e6, 0.75);
    const double fast = model.transmit_power_w(50e6, 0.75);
    EXPECT_GT(fast, slow);
    // Dynamic part is linear in rate, at 3.7 nJ per switch transition.
    EXPECT_NEAR(fast - slow, 49e6 * 0.75 * 3.7e-9, 1e-6);
}

TEST(energy, frame_energy_consistency)
{
    backscatter_modulator mod(modulator_config());
    const auto frame = mod.modulate(phy::random_bytes(32, 7));
    energy_model model;
    const double energy = model.frame_energy_j(frame);
    // MCU active + switch bias + detector bias, and 3.7 nJ per transition.
    const double static_part = (5.76e-3 + 1.8e-3 + 0.3e-3) * frame.duration_s;
    EXPECT_NEAR(energy - static_part, static_cast<double>(frame.transitions) * 3.7e-9, 1e-12);
}

TEST(energy, per_bit_anchor_order_of_magnitude)
{
    // The reconstructed anchor: a few nJ/bit at ~10 Mbps-class rates.
    energy_model model;
    phy::frame_config frame;
    frame.scheme = phy::modulation::qpsk;
    frame.fec = phy::fec_mode::uncoded;
    const double epb = model.energy_per_bit(frame, 5e6); // 10 Mb/s
    EXPECT_GT(epb, 0.5e-9);
    EXPECT_LT(epb, 10e-9);
}

TEST(energy, efficiency_improves_with_rate)
{
    // Static power amortizes across more bits at higher rates.
    energy_model model;
    phy::frame_config frame;
    frame.scheme = phy::modulation::qpsk;
    frame.fec = phy::fec_mode::uncoded;
    EXPECT_GT(model.energy_per_bit(frame, 1e6), model.energy_per_bit(frame, 50e6));
}

} // namespace
} // namespace mmtag::tag
