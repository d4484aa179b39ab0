// R17 — Fading robustness (extension).
// Block Rician fading on the tag path at a mid-range operating point.
// Expected shape: strong-LOS (high K) channels behave like the static link;
// as K drops toward Rayleigh, per-frame SNR spreads over many dB and PER
// rises even though the *mean* budget is unchanged — the argument for link
// margin and ARQ in deployments.
#include "experiments.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/dsp/estimators.hpp"
#include "mmtag/mac/arq.hpp"
#include "mmtag/phy/bitio.hpp"

using namespace mmtag;

cli::outcome bench::r17_fading(const bench::bench_options& opts)
{
    const bool csv = opts.csv;

    constexpr std::size_t frames = 40;
    bench::table out({"k_factor_dB", "mean_snr_dB", "snr_std_dB", "per",
                      "arq_delivery", "arq_tx_per_frame"},
                     csv);
    for (double k_db : {100.0, 10.0, 6.0, 3.0, 0.0, -10.0}) {
        auto cfg = core::fast_scenario();
        cfg.distance_m = 6.0;
        cfg.rician_k_db = k_db;
        core::link_simulator sim(cfg);

        dsp::running_stats snr;
        std::size_t delivered = 0;
        for (std::size_t f = 0; f < frames; ++f) {
            const auto result = sim.run_frame(phy::random_bytes(24, 100 + f));
            if (result.rx.frame_found) snr.add(result.rx.snr_db);
            if (result.delivered) ++delivered;
        }
        const double per = 1.0 - static_cast<double>(delivered) / frames;

        // What stop-and-wait ARQ recovers at this frame success rate.
        const auto arq_stats = mac::stop_and_wait(500, std::max(1.0 - per, 0.01), 17);

        out.add_row({k_db >= 80.0 ? "LOS" : bench::fmt("%.0f", k_db),
                     bench::fmt("%.1f", snr.count() ? snr.mean() : -100.0),
                     bench::fmt("%.1f", snr.count() > 1 ? snr.standard_deviation() : 0.0),
                     bench::fmt("%.2f", per),
                     bench::fmt("%.3f", arq_stats.delivery_ratio()),
                     bench::fmt("%.2f", static_cast<double>(arq_stats.transmissions) /
                                            static_cast<double>(arq_stats.frames_offered))});
    }
    out.print();
    return {};
}
