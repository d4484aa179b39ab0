#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "mmtag/ap/canceller.hpp"
#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/ap/transmitter.hpp"
#include "mmtag/dsp/estimators.hpp"

namespace mmtag::ap {
namespace {

TEST(transmitter, radiates_requested_power)
{
    ap_transmitter::config cfg;
    cfg.tx_power_dbm = 27.0;
    cfg.sample_rate_hz = 250e6;
    cfg.lo_linewidth_hz = 0.0;
    cfg.pa.gain_db = 30.0;
    cfg.pa.output_saturation_dbm = 33.0;
    ap_transmitter tx(cfg, 1);
    const auto query = tx.generate(1000);
    EXPECT_NEAR(watt_to_dbm(dsp::mean_power(query.rf)), 27.0, 0.1);
    EXPECT_NEAR(dsp::mean_power(query.lo), 1.0, 1e-9);
}

TEST(transmitter, rejects_power_beyond_saturation)
{
    ap_transmitter::config cfg;
    cfg.tx_power_dbm = 40.0;
    cfg.pa.output_saturation_dbm = 33.0;
    EXPECT_THROW(ap_transmitter(cfg, 1), simulation_error);
}

TEST(transmitter, lo_and_rf_phase_locked)
{
    ap_transmitter::config cfg;
    cfg.tx_power_dbm = 20.0;
    cfg.lo_linewidth_hz = 5e3; // noisy synthesizer
    ap_transmitter tx(cfg, 2);
    const auto query = tx.generate(5000);
    // rf / lo must be a constant real scalar despite phase noise.
    for (std::size_t i = 0; i < query.rf.size(); ++i) {
        const cf64 ratio = query.rf[i] / query.lo[i];
        EXPECT_NEAR(ratio.imag(), 0.0, 1e-9);
        EXPECT_NEAR(ratio.real(), std::sqrt(dbm_to_watt(20.0)), 1e-3);
    }
}

/// The PA drive level the transmitter solves for: its constructor's
/// bisection, repeated.
double solved_drive(const rf::power_amplifier& pa, double tx_power_dbm)
{
    const double target_amplitude = std::sqrt(dbm_to_watt(tx_power_dbm));
    double low = 0.0;
    double high = target_amplitude * 10.0;
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (low + high);
        const double out = std::abs(pa.process(cf64{mid, 0.0}));
        if (out < target_amplitude) low = mid;
        else high = mid;
    }
    return 0.5 * (low + high);
}

bool same_bits(cf64 a, cf64 b)
{
    return std::bit_cast<std::uint64_t>(a.real()) == std::bit_cast<std::uint64_t>(b.real()) &&
           std::bit_cast<std::uint64_t>(a.imag()) == std::bit_cast<std::uint64_t>(b.imag());
}

TEST(transmitter, rf_is_the_per_sample_pa_output_bit_for_bit)
{
    // From the linear region into deep compression (32.9 dBm against a
    // 33 dBm saturation), with and without LO phase noise.
    for (const double tx_power_dbm : {0.0, 27.0, 32.9}) {
        for (const double linewidth_hz : {0.0, 5e3}) {
            ap_transmitter::config cfg;
            cfg.tx_power_dbm = tx_power_dbm;
            cfg.lo_linewidth_hz = linewidth_hz;
            cfg.pa.output_saturation_dbm = 33.0;
            ap_transmitter tx(cfg, 3);
            const rf::power_amplifier pa(cfg.pa);
            const double drive = solved_drive(pa, tx_power_dbm);
            for (int call = 0; call < 2; ++call) {
                const auto query = tx.generate(20000);
                ASSERT_EQ(query.rf.size(), query.lo.size());
                std::size_t mismatches = 0;
                for (std::size_t i = 0; i < query.rf.size(); ++i) {
                    if (!same_bits(query.rf[i], pa.process(drive * query.lo[i]))) ++mismatches;
                }
                EXPECT_EQ(mismatches, 0u) << tx_power_dbm << " dBm, " << linewidth_hz << " Hz";
            }
        }
    }
}

TEST(canceller, background_subtract_removes_static_interference)
{
    // Default config: background_subtract.
    self_interference_canceller canceller{self_interference_canceller::config{}};
    // Static leakage DC throughout; the tag starts modulating only after the
    // quiet leading window (as the turnaround guarantees in a real exchange).
    cvec baseband(4000);
    for (std::size_t i = 0; i < baseband.size(); ++i) {
        const double tag = (i < 500) ? 0.0 : ((i / 20) % 2 == 0 ? 1e-3 : -1e-3);
        baseband[i] = cf64{0.5, 0.2} + cf64{tag, 0.0};
    }
    const cvec out = canceller.process(baseband);
    EXPECT_NEAR(std::abs(canceller.background_estimate() - cf64{0.5, 0.2}), 0.0, 1e-9);
    // Residual is exactly the +-1e-3 modulation, not the 0.54 DC.
    const std::span<const cf64> tail{out.data() + 1000, 3000};
    EXPECT_NEAR(dsp::rms(tail), 1e-3, 1e-5);
    EXPECT_LT(canceller.last_suppression_db(), -45.0);
}

TEST(canceller, mean_subtract_removes_dc_with_bias)
{
    self_interference_canceller::config cfg;
    cfg.mode = cancellation_mode::mean_subtract;
    self_interference_canceller canceller(cfg);
    cvec baseband(4000);
    for (std::size_t i = 0; i < baseband.size(); ++i) {
        const double tag = (i / 20) % 2 == 0 ? 1e-3 : -1e-3;
        baseband[i] = cf64{0.5, 0.2} + cf64{tag, 0.0};
    }
    const cvec out = canceller.process(baseband);
    const std::span<const cf64> tail{out.data() + 1000, 3000};
    EXPECT_LT(dsp::rms(tail), 5e-3);
    EXPECT_GT(dsp::rms(tail), 0.5e-3);
    EXPECT_LT(canceller.last_suppression_db(), -40.0);
}

TEST(canceller, training_fraction_validated)
{
    self_interference_canceller::config cfg;
    cfg.training_fraction = 0.0;
    EXPECT_THROW(self_interference_canceller{cfg}, std::invalid_argument);
}

TEST(canceller, off_mode_passthrough)
{
    self_interference_canceller::config cfg;
    cfg.mode = cancellation_mode::off;
    self_interference_canceller canceller(cfg);
    const cvec in(100, cf64{0.3, -0.1});
    const cvec out = canceller.process(in);
    for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(out[i], in[i]);
    EXPECT_NEAR(canceller.last_suppression_db(), 0.0, 1e-9);
}

TEST(canceller, preserves_offset_tone)
{
    // A tone away from DC (the tag's modulated spectrum) must pass.
    self_interference_canceller canceller{self_interference_canceller::config{}};
    cvec in(8000);
    for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = std::polar(1.0, two_pi * 0.05 * static_cast<double>(i));
    }
    const cvec out = canceller.process(in);
    const std::span<const cf64> tail{out.data() + 4000, 4000};
    EXPECT_NEAR(dsp::rms(tail), 1.0, 0.05);
}

TEST(rate_adaptation, table_is_monotone)
{
    const auto& table = rate_table();
    for (std::size_t i = 1; i < table.size(); ++i) {
        EXPECT_GT(table[i].efficiency(), table[i - 1].efficiency());
        EXPECT_GT(table[i].required_snr_db, table[i - 1].required_snr_db);
    }
}

TEST(rate_adaptation, selects_by_snr)
{
    rate_adapter adapter(2.0);
    // Very low SNR: most robust option.
    EXPECT_EQ(adapter.select(-5.0).scheme, phy::modulation::bpsk);
    // Very high SNR: densest option.
    const auto best = adapter.select(40.0);
    EXPECT_EQ(best.scheme, phy::modulation::psk16);
    EXPECT_EQ(best.fec, phy::fec_mode::uncoded);
    // Mid SNR selects something in between.
    const auto mid = adapter.select(10.0);
    EXPECT_GT(mid.efficiency(), adapter.select(-5.0).efficiency());
    EXPECT_LT(mid.efficiency(), best.efficiency());
}

TEST(rate_adaptation, margin_is_respected)
{
    rate_adapter tight(0.0);
    rate_adapter cautious(6.0);
    const double snr = 13.0;
    EXPECT_GE(tight.select(snr).efficiency(), cautious.select(snr).efficiency());
}

TEST(rate_adaptation, smoothing_filters_outliers)
{
    rate_adapter adapter(2.0);
    (void)adapter.select_smoothed(20.0);
    for (int i = 0; i < 10; ++i) (void)adapter.select_smoothed(20.0);
    // One deep outlier cannot crash the average to the bottom.
    const auto option = adapter.select_smoothed(-10.0);
    EXPECT_GT(adapter.smoothed_snr_db(), 10.0);
    EXPECT_GT(option.efficiency(), 1.0);
}

} // namespace
} // namespace mmtag::ap
