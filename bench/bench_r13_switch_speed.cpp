// R13 — Switch-speed rate ceiling.
// The tag's uplink symbol rate is capped by the RF switch's rise/fall time;
// pushing symbols faster smears transitions across the symbol. Expected
// shape: EVM degrades as the symbol period approaches the transition time,
// and the modulator refuses rates beyond the device ceiling — the paper's
// "rate limited by switching speed" observation.
#include "bench_util.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/rf/rf_switch.hpp"

using namespace mmtag;

int main(int argc, char** argv)
{
    const auto opts = bench::bench_options::parse(argc, argv);
    const bool csv = opts.csv;
    bench::banner("R13", "link quality vs switch rise/fall time at 5 Msym/s", csv);

    bench::table out({"rise_fall_ns", "max_sym_rate_Msps", "snr_dB", "evm_dB", "per"}, csv);
    for (double rise_ns : {0.0, 2.0, 10.0, 25.0, 50.0, 80.0}) {
        auto cfg = core::fast_scenario();
        cfg.modulator.rf_switch.rise_fall_time_s = rise_ns * 1e-9;
        const rf::rf_switch device(
            [&] {
                auto sw = cfg.modulator.rf_switch;
                sw.throw_count = 5;
                return sw;
            }());
        core::link_simulator sim(cfg);
        const auto report = sim.run_trials(5, 32);
        const double ceiling = device.max_symbol_rate_hz();
        out.add_row({bench::fmt("%.0f", rise_ns),
                     ceiling > 1e15 ? "inf" : bench::fmt("%.0f", ceiling / 1e6),
                     bench::fmt("%.1f", report.mean_snr_db),
                     bench::fmt("%.1f", report.mean_evm_db),
                     bench::fmt("%.2f", report.per)});
    }
    out.print();

    if (!csv) {
        std::printf("\nDevice ceiling check: a 1 us switch cannot run 5 Msym/s — ");
        auto cfg = core::fast_scenario();
        cfg.modulator.rf_switch.rise_fall_time_s = 1e-6;
        try {
            core::link_simulator sim(cfg);
            std::printf("UNEXPECTEDLY ACCEPTED\n");
        } catch (const simulation_error&) {
            std::printf("rejected as expected.\n");
        }
    }
    return 0;
}
