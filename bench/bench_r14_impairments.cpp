// R14 — Impairment sensitivity microbenchmark.
// Sweeps the receiver/front-end non-idealities one at a time at the default
// 2 m operating point: ADC resolution (dynamic range vs the static self-
// interference), LO phase-noise linewidth, and LNA noise figure. Expected
// shape: the link is ADC-limited below ~12 bits, phase-noise-limited only
// for very poor synthesizers (self-coherent operation cancels common phase
// noise), and degrades dB-for-dB with noise figure at long range.
#include "bench_util.hpp"
#include "mmtag/core/link_simulator.hpp"

using namespace mmtag;

int main(int argc, char** argv)
{
    const auto opts = bench::bench_options::parse(argc, argv);
    const bool csv = opts.csv;
    bench::banner("R14", "sensitivity to ADC bits, LO linewidth, and noise figure", csv);

    if (!csv) std::printf("ADC resolution (static interference / tag ~ 30 dB):\n");
    bench::table adc({"adc_bits", "snr_dB", "per"}, csv);
    for (unsigned bits : {6u, 8u, 10u, 12u, 14u, 16u}) {
        auto cfg = core::fast_scenario();
        cfg.receiver.adc.bits = bits;
        core::link_simulator sim(cfg);
        const auto report = sim.run_trials(4, 32);
        adc.add_row({std::to_string(bits), bench::fmt("%.1f", report.mean_snr_db),
                     bench::fmt("%.2f", report.per)});
    }
    adc.print();

    if (!csv) std::printf("\nLO phase-noise linewidth (self-coherent RX):\n");
    bench::table pn({"linewidth_Hz", "snr_dB", "per"}, csv);
    for (double linewidth : {0.0, 100.0, 1e3, 10e3, 100e3, 1e6}) {
        auto cfg = core::fast_scenario();
        cfg.transmitter.lo_linewidth_hz = linewidth;
        core::link_simulator sim(cfg);
        const auto report = sim.run_trials(4, 32);
        pn.add_row({bench::fmt("%.0f", linewidth), bench::fmt("%.1f", report.mean_snr_db),
                    bench::fmt("%.2f", report.per)});
    }
    pn.print();

    if (!csv) std::printf("\nLNA noise figure at 6 m (thermal-limited range):\n");
    bench::table nf({"nf_dB", "snr_dB", "per"}, csv);
    for (double noise_figure : {1.0, 3.5, 6.0, 9.0, 12.0}) {
        auto cfg = core::fast_scenario();
        cfg.distance_m = 6.0;
        cfg.receiver.lna.noise_figure_db = noise_figure;
        core::link_simulator sim(cfg);
        const auto report = sim.run_trials(4, 32);
        nf.add_row({bench::fmt("%.1f", noise_figure), bench::fmt("%.1f", report.mean_snr_db),
                    bench::fmt("%.2f", report.per)});
    }
    nf.print();
    return 0;
}
