// R8 — Self-interference cancellation ablation.
// Compares the canceller modes under increasing TX-RX coupling. Expected
// shape: without cancellation the static DC buries the tag (sync fails or
// SNR collapses); background subtraction holds the link to within a few dB
// of the interference-free bound until coupling overwhelms the ADC's
// dynamic range.
#include "experiments.hpp"
#include "mmtag/core/link_simulator.hpp"

using namespace mmtag;

namespace {

const char* mode_name(ap::cancellation_mode mode)
{
    switch (mode) {
    case ap::cancellation_mode::off: return "off";
    case ap::cancellation_mode::dc_notch: return "dc-notch";
    case ap::cancellation_mode::mean_subtract: return "mean-subtract";
    case ap::cancellation_mode::background_subtract: return "background";
    }
    return "?";
}

} // namespace

cli::outcome bench::r08_cancellation(const bench::bench_options& opts)
{
    const bool csv = opts.csv;

    bench::table out({"leakage_dB", "mode", "snr_dB", "per", "suppression_dB"}, csv);
    for (double leakage : {-80.0, -60.0, -45.0, -30.0}) {
        for (auto mode : {ap::cancellation_mode::off, ap::cancellation_mode::dc_notch,
                          ap::cancellation_mode::mean_subtract,
                          ap::cancellation_mode::background_subtract}) {
            auto cfg = core::fast_scenario();
            cfg.tx_leakage_db = leakage;
            cfg.receiver.canceller.mode = mode;
            core::link_simulator sim(cfg);
            const auto result = sim.run_frame(
                std::vector<std::uint8_t>(32, 0xA5));
            const auto report = sim.run_trials(4, 32);
            out.add_row({bench::fmt("%.0f", leakage), mode_name(mode),
                         bench::fmt("%.1f", report.mean_snr_db),
                         bench::fmt("%.2f", report.per),
                         bench::fmt("%.1f", result.rx.suppression_db)});
        }
    }
    out.print();
    return {};
}
