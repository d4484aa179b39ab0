// R3 — Uplink SNR vs distance.
// Measured post-cancellation SNR at the AP across 0.5-10 m, against the
// analytic link budget. Expected shape: ~40 dB/decade roll-off (two-way
// channel) with a constant implementation gap of a few dB; the link clears
// QPSK-1/2 thresholds out to roughly the paper-class 8 m.
#include "bench_util.hpp"
#include "mmtag/core/link_budget.hpp"
#include "mmtag/core/link_simulator.hpp"

using namespace mmtag;

int main(int argc, char** argv)
{
    const auto opts = bench::bench_options::parse(argc, argv);
    const bool csv = opts.csv;
    bench::banner("R3", "uplink SNR vs distance (measured vs analytic budget)", csv);

    bench::table out({"distance_m", "budget_snr_dB", "measured_snr_dB", "gap_dB",
                      "rx_power_dBm", "per"},
                     csv);
    for (double distance : {0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0}) {
        auto cfg = core::fast_scenario();
        cfg.distance_m = distance;
        const core::link_budget budget(cfg);
        const auto entry = budget.at(distance);
        core::link_simulator sim(cfg);
        const auto report = sim.run_trials(6, 32);
        out.add_row({bench::fmt("%.1f", distance), bench::fmt("%.1f", entry.snr_db),
                     bench::fmt("%.1f", report.mean_snr_db),
                     bench::fmt("%.1f", entry.snr_db - report.mean_snr_db),
                     bench::fmt("%.1f", entry.received_at_ap_dbm),
                     bench::fmt("%.2f", report.per)});
    }
    out.print();
    return 0;
}
