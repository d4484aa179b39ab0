// R16 — LO architecture ablation (extension).
// Self-coherent downconversion (RX mixes with the TX carrier itself) versus
// a conventional independent synthesizer, with each impairment isolated.
// Expected shape: the two architectures coincide only when both synthesizers
// are ideal; *any* independent-LO impairment — its own linewidth, the TX
// linewidth it no longer cancels, or plain CFO — rotates the "static"
// interference through the capture window and defeats cancellation. The tag
// signal sits ~50 dB below the statics, so the link collapses: this is why
// backscatter readers are built self-coherent.
#include "experiments.hpp"
#include "mmtag/core/link_simulator.hpp"

using namespace mmtag;

namespace {

struct lo_case {
    const char* label;
    ap::lo_mode mode;
    double tx_linewidth_hz;
    double rx_linewidth_hz;
    double cfo_hz;
};

} // namespace

cli::outcome bench::r16_lo_architecture(const bench::bench_options& opts)
{
    const bool csv = opts.csv;

    const lo_case cases[] = {
        {"self-coherent, ideal TX", ap::lo_mode::self_coherent, 0.0, 0.0, 0.0},
        {"self-coherent, 100 Hz TX", ap::lo_mode::self_coherent, 100.0, 0.0, 0.0},
        {"self-coherent, 10 kHz TX", ap::lo_mode::self_coherent, 10e3, 0.0, 0.0},
        {"independent, all ideal", ap::lo_mode::independent, 0.0, 0.0, 0.0},
        {"independent, 100 Hz TX only", ap::lo_mode::independent, 100.0, 0.0, 0.0},
        {"independent, 100 Hz RX only", ap::lo_mode::independent, 0.0, 100.0, 0.0},
        {"independent, 100 Hz CFO", ap::lo_mode::independent, 0.0, 0.0, 100.0},
        {"independent, 1 kHz CFO", ap::lo_mode::independent, 0.0, 0.0, 1e3},
        {"independent, 10 kHz CFO", ap::lo_mode::independent, 0.0, 0.0, 10e3},
    };

    bench::table out({"configuration", "snr_dB", "per"}, csv);
    for (const auto& test_case : cases) {
        auto cfg = core::fast_scenario();
        cfg.transmitter.lo_linewidth_hz = test_case.tx_linewidth_hz;
        cfg.receiver.lo = test_case.mode;
        cfg.receiver.independent_linewidth_hz = test_case.rx_linewidth_hz;
        cfg.receiver.independent_cfo_hz = test_case.cfo_hz;
        core::link_simulator sim(cfg);
        const auto report = sim.run_trials(4, 32);
        out.add_row({test_case.label, bench::fmt("%.1f", report.mean_snr_db),
                     bench::fmt("%.2f", report.per)});
    }
    out.print();

    if (!csv) {
        std::printf("\nNote how self-coherent operation shrugs off even a 10 kHz TX\n"
                    "linewidth (it cancels common-mode), while the independent LO is\n"
                    "broken by 100 Hz of *anything* — the statics must stay parked at\n"
                    "DC for cancellation to find them.\n");
    }
    return {};
}
