// R4 — BER vs distance per data rate.
// Three operating points spanning the paper's rate range: 2.5 Mb/s robust
// (QPSK R=1/2 at 2.5 Msym/s), 10 Mb/s (QPSK uncoded), and 20 Mb/s (16-PSK
// uncoded at the same symbol rate). Expected shape: higher rates hit the BER
// wall at shorter distances; the robust rate survives to paper-class ranges.
//
// Runs on the parallel Monte-Carlo runtime: each (distance, rate) point fans
// TRIALS independent links (counter-seeded, bit-identical for any --jobs)
// out across the pool and merges their link_reports in trial order.
#include "experiments.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/core/metrics.hpp"
#include "mmtag/runtime/sweep_runner.hpp"

using namespace mmtag;

namespace {

struct rate_point {
    const char* label;
    phy::modulation scheme;
    phy::fec_mode fec;
};

constexpr rate_point kRates[] = {
    {"2.5Mbps QPSK-1/2", phy::modulation::qpsk, phy::fec_mode::conv_half},
    {"10Mbps QPSK", phy::modulation::qpsk, phy::fec_mode::uncoded},
    {"20Mbps 16PSK", phy::modulation::psk16, phy::fec_mode::uncoded},
};
constexpr double kDistances[] = {1.0, 2.0, 4.0, 6.0, 8.0, 10.0};
constexpr std::size_t kTrials = 5;
constexpr std::size_t kFramesPerTrial = 4;
constexpr std::size_t kPayloadBytes = 48;

} // namespace

cli::outcome bench::r04_ber_vs_distance(const bench::bench_options& opts)
{
    const std::size_t rate_count = std::size(kRates);
    const std::size_t point_count = std::size(kDistances) * rate_count;

    runtime::sweep_options sweep;
    sweep.jobs = opts.jobs;
    sweep.base_seed = opts.seed;
    sweep.trials_per_point = kTrials;
    sweep.progress = runtime::stderr_progress();

    const auto outcome = runtime::run_sweep<core::link_report>(
        sweep, point_count, [&](std::size_t point, std::size_t, std::uint64_t seed) {
            auto cfg = core::fast_scenario();
            cfg.distance_m = kDistances[point / rate_count];
            const auto& rate = kRates[point % rate_count];
            cfg.modulator.frame.scheme = rate.scheme;
            cfg.modulator.frame.fec = rate.fec;
            cfg.receiver.frame = cfg.modulator.frame;
            cfg.seed = seed;
            core::link_simulator sim(cfg);
            return sim.run_trials(kFramesPerTrial, kPayloadBytes);
        });

    runtime::result_writer results(opts.id, opts.title, {"distance_m", "rate"}, opts.seed);
    bench::table out({"distance_m", "rate", "snr_dB", "ber", "ber_ci95", "per"}, opts.csv);
    for (std::size_t point = 0; point < point_count; ++point) {
        const auto& report = outcome.points[point].aggregate;
        const double distance = kDistances[point / rate_count];
        const auto& rate = kRates[point % rate_count];
        out.add_row({bench::fmt("%.0f", distance), rate.label,
                     bench::fmt("%.1f", report.mean_snr_db),
                     core::format_ber(report.ber, report.bits),
                     bench::fmt("%.1e", report.ber_confidence()),
                     bench::fmt("%.2f", report.per)});
        auto axis = runtime::json_value::object();
        axis.set("distance_m", runtime::json_value::number(distance));
        axis.set("rate", runtime::json_value::string(rate.label));
        results.add_point(std::move(axis), kTrials,
                          runtime::result_writer::metrics(report));
    }
    out.print();
    return {.document = results.to_json(), .tasks = outcome.trials, .jobs = outcome.jobs};
}
