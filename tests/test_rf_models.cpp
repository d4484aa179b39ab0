#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "mmtag/dsp/estimators.hpp"
#include "mmtag/rf/adc.hpp"
#include "mmtag/rf/amplifier.hpp"
#include "mmtag/rf/mixer.hpp"
#include "mmtag/rf/noise.hpp"
#include "mmtag/rf/oscillator.hpp"

namespace mmtag::rf {
namespace {

/// CW output power [dBm] of the per-sample PA for an input of `input_dbm`.
double pa_output_dbm(const power_amplifier& pa, double input_dbm)
{
    return watt_to_dbm(std::norm(pa.process(cf64{std::sqrt(dbm_to_watt(input_dbm)), 0.0})));
}

/// Image-rejection ratio [dB] measured through downconvert. A tone x and its
/// image conj(x) are orthogonal over whole periods (as is the DC of the LO
/// leakage), so projecting the output onto each separates the wanted gain
/// from the image gain.
double measured_irr_db(const quadrature_mixer& mixer)
{
    constexpr int n = 64;
    cf64 wanted{};
    cf64 image{};
    for (int i = 0; i < n; ++i) {
        const cf64 x = std::polar(1.0, two_pi * 5.0 * static_cast<double>(i) / n);
        const cf64 y = mixer.downconvert(x, cf64{1.0, 0.0});
        wanted += y * std::conj(x);
        image += y * x;
    }
    return to_db(std::norm(wanted) / std::norm(image));
}

TEST(noise, thermal_power_minus_174_dbm_per_hz)
{
    EXPECT_NEAR(watt_to_dbm(thermal_noise_power(1.0)), -173.98, 0.05);
    EXPECT_NEAR(watt_to_dbm(thermal_noise_power(1e6)), -113.98, 0.05);
}

TEST(noise, awgn_power_matches_request)
{
    awgn_source source(0.25, 5);
    cvec buffer(200000, cf64{});
    source.add_to(buffer);
    EXPECT_NEAR(dsp::mean_power(buffer), 0.25, 0.01);
}

TEST(noise, awgn_is_circular)
{
    awgn_source source(1.0, 6);
    double i_power = 0.0;
    double q_power = 0.0;
    double cross = 0.0;
    constexpr int n = 100000;
    for (const cf64 s : source.apply(cvec(n, cf64{}))) {
        i_power += s.real() * s.real();
        q_power += s.imag() * s.imag();
        cross += s.real() * s.imag();
    }
    EXPECT_NEAR(i_power / n, 0.5, 0.02);
    EXPECT_NEAR(q_power / n, 0.5, 0.02);
    EXPECT_NEAR(cross / n, 0.0, 0.02);
}

TEST(oscillator, cfo_rotation_rate)
{
    oscillator::config cfg;
    cfg.sample_rate_hz = 1e6;
    cfg.frequency_offset_hz = 1000.0;
    oscillator lo(cfg, 7);
    // After 250 samples (250 us) the phase should advance 2 pi * 0.25.
    const cvec samples = lo.generate(251);
    const double advance = std::arg(samples.back() * std::conj(samples.front()));
    EXPECT_NEAR(advance, two_pi * 1000.0 * 250e-6, 1e-6);
}

TEST(oscillator, phase_noise_grows_with_linewidth)
{
    auto phase_drift = [](double linewidth) {
        oscillator::config cfg;
        cfg.sample_rate_hz = 1e8;
        cfg.linewidth_hz = linewidth;
        oscillator lo(cfg, 11);
        dsp::running_stats drift;
        for (int trial = 0; trial < 200; ++trial) {
            const double start = lo.phase();
            (void)lo.generate(1000);
            drift.add(wrap_phase(lo.phase() - start));
        }
        return drift.variance();
    };
    EXPECT_GT(phase_drift(1e5), phase_drift(1e3) * 10.0);
}

TEST(oscillator, zero_linewidth_is_deterministic)
{
    oscillator::config cfg;
    cfg.sample_rate_hz = 1e6;
    cfg.frequency_offset_hz = 0.0;
    oscillator lo(cfg, 13);
    for (const cf64 sample : lo.generate(100)) {
        EXPECT_NEAR(std::abs(sample - cf64{1.0, 0.0}), 0.0, 1e-12);
    }
}

TEST(lna, small_signal_gain)
{
    lna::config cfg;
    cfg.gain_db = 20.0;
    cfg.noise_figure_db = 0.01; // effectively noiseless
    cfg.bandwidth_hz = 1e6;
    lna amplifier(cfg, 17);
    const cvec out = amplifier.process(cvec{cf64{1e-3, 0.0}});
    EXPECT_NEAR(std::abs(out[0]), 1e-2, 1e-4);
}

TEST(lna, output_noise_matches_noise_figure)
{
    lna::config cfg;
    cfg.gain_db = 30.0;
    cfg.noise_figure_db = 6.0;
    cfg.bandwidth_hz = 1e9;
    lna amplifier(cfg, 19);
    cvec zeros(100000, cf64{});
    const cvec out = amplifier.process(zeros);
    const double measured = dsp::mean_power(out);
    const double expected = (from_db(6.0) - 1.0) * thermal_noise_power(1e9) * from_db(30.0);
    EXPECT_NEAR(measured / expected, 1.0, 0.05);
}

TEST(pa, linear_region_gain)
{
    power_amplifier::config cfg;
    cfg.gain_db = 30.0;
    cfg.output_saturation_dbm = 30.0;
    power_amplifier pa(cfg);
    // -20 dBm in -> +10 dBm out, 20 dB below saturation: essentially linear.
    EXPECT_NEAR(pa_output_dbm(pa, -20.0), 10.0, 0.05);
}

TEST(pa, saturates_at_configured_level)
{
    power_amplifier::config cfg;
    cfg.gain_db = 30.0;
    cfg.output_saturation_dbm = 30.0;
    power_amplifier pa(cfg);
    EXPECT_LT(pa_output_dbm(pa, 30.0), 30.01);
    EXPECT_NEAR(pa_output_dbm(pa, 30.0), 30.0, 0.3);
}

TEST(pa, p1db_below_saturation)
{
    power_amplifier::config cfg;
    cfg.gain_db = 30.0;
    cfg.output_saturation_dbm = 30.0;
    power_amplifier pa(cfg);
    // Rapp compression is 1 dB where (1 + r^2p)^(1/2p) = 10^(1/20), with r the
    // driven amplitude over the saturation amplitude and p = 2.
    const double p2 = 2.0 * 2.0;
    const double ratio = std::pow(std::pow(10.0, p2 / 20.0) - 1.0, 1.0 / p2);
    const double p1db_in = cfg.output_saturation_dbm + to_db(ratio * ratio) - cfg.gain_db;
    // At the 1 dB compression input, gain must be 29 dB.
    EXPECT_NEAR(pa_output_dbm(pa, p1db_in) - p1db_in, 29.0, 0.05);
    EXPECT_LT(p1db_in + 30.0, 30.0 + 0.5); // output P1dB below Psat
}

TEST(pa, process_is_input_times_gain)
{
    power_amplifier::config cfg;
    cfg.gain_db = 30.0;
    cfg.output_saturation_dbm = 30.0;
    const power_amplifier pa(cfg);
    // From deep in the linear region to 40 dB past saturation, at phases
    // off the real axis.
    for (double input_dbm = -80.0; input_dbm <= 40.0; input_dbm += 0.37) {
        const cf64 x = std::polar(std::sqrt(dbm_to_watt(input_dbm)), 0.3 * input_dbm);
        const cf64 want = x * pa.gain(std::abs(x));
        const cf64 got = pa.process(x);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.real()),
                  std::bit_cast<std::uint64_t>(want.real())) << input_dbm;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.imag()),
                  std::bit_cast<std::uint64_t>(want.imag())) << input_dbm;
    }
    const cf64 zero = pa.process(cf64{0.5 * power_amplifier::min_amplitude, 0.0});
    EXPECT_EQ(zero, cf64{});
}

TEST(pa, preserves_phase)
{
    power_amplifier pa{power_amplifier::config{}};
    const cf64 in = std::polar(0.5, 1.1);
    const cf64 out = pa.process(in);
    EXPECT_NEAR(std::arg(out), 1.1, 1e-9);
}

TEST(mixer, ideal_downconversion_conjugates_lo)
{
    quadrature_mixer::config cfg;
    cfg.conversion_loss_db = 0.0;
    cfg.lo_leakage_dbc = -200.0;
    quadrature_mixer mixer(cfg);
    const cf64 lo = std::polar(1.0, 0.9);
    const cf64 rf = std::polar(2.0, 1.4);
    const cf64 bb = mixer.downconvert(rf, lo);
    EXPECT_NEAR(std::abs(bb), 2.0, 1e-9);
    EXPECT_NEAR(std::arg(bb), 0.5, 1e-9);
}

TEST(mixer, conversion_loss_applies)
{
    quadrature_mixer::config cfg;
    cfg.conversion_loss_db = 7.0;
    cfg.lo_leakage_dbc = -200.0;
    quadrature_mixer mixer(cfg);
    const cf64 bb = mixer.downconvert(cf64{1.0, 0.0}, cf64{1.0, 0.0});
    EXPECT_NEAR(to_db(std::norm(bb)), -7.0, 1e-6);
}

TEST(mixer, balanced_mixer_has_huge_irr)
{
    quadrature_mixer mixer{quadrature_mixer::config{}};
    EXPECT_GT(measured_irr_db(mixer), 150.0);
}

TEST(adc, quantization_noise_tracks_bits)
{
    auto sqnr_for_bits = [](unsigned bits) {
        adc::config cfg;
        cfg.bits = bits;
        cfg.full_scale = 1.0;
        adc converter(cfg);
        double signal = 0.0;
        double noise = 0.0;
        for (int i = 0; i < 10000; ++i) {
            const cf64 x = std::polar(0.7, 0.001 * static_cast<double>(i) * 317.0);
            const cf64 y = converter.sample(x);
            signal += std::norm(x);
            noise += std::norm(y - x);
        }
        return to_db(signal / noise);
    };
    const double sqnr8 = sqnr_for_bits(8);
    const double sqnr12 = sqnr_for_bits(12);
    EXPECT_NEAR(sqnr12 - sqnr8, 24.0, 3.0); // ~6 dB per bit
}

TEST(adc, clips_beyond_full_scale)
{
    adc::config cfg;
    cfg.bits = 8;
    cfg.full_scale = 1.0;
    adc converter(cfg);
    const cf64 y = converter.sample(cf64{5.0, -5.0});
    EXPECT_LT(y.real(), 1.0);
    EXPECT_GT(y.imag(), -1.0 - 1e-9);
}

} // namespace
} // namespace mmtag::rf
