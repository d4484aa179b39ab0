// R6 — Throughput vs distance with rate adaptation.
// The AP measures SNR, consults the rate ladder, and the link runs at the
// selected (modulation, FEC). Expected shape: a staircase of goodput that
// steps down with distance, always outperforming any single fixed rate
// outside that rate's sweet spot.
#include "experiments.hpp"
#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/core/link_simulator.hpp"

using namespace mmtag;

namespace {

core::link_report run_at(core::system_config cfg, phy::modulation scheme, phy::fec_mode fec,
                         std::size_t frames)
{
    cfg.modulator.frame.scheme = scheme;
    cfg.modulator.frame.fec = fec;
    cfg.receiver.frame = cfg.modulator.frame;
    core::link_simulator sim(cfg);
    return sim.run_trials(frames, 48);
}

} // namespace

cli::outcome bench::r06_rate_adaptation(const bench::bench_options& opts)
{
    const bool csv = opts.csv;

    bench::table out({"distance_m", "snr_dB", "selected", "adaptive_Mbps",
                      "fixed_qpsk12_Mbps", "fixed_16psk_Mbps"},
                     csv);
    const ap::rate_adapter adapter(2.0);
    for (double distance : {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0}) {
        auto cfg = core::fast_scenario();
        cfg.distance_m = distance;

        // Probe SNR with the robust rate, then adapt.
        const auto probe = run_at(cfg, phy::modulation::qpsk, phy::fec_mode::conv_half, 3);
        const auto option = adapter.select(probe.mean_snr_db);
        const auto adaptive = run_at(cfg, option.scheme, option.fec, 8);
        const auto fixed_robust =
            run_at(cfg, phy::modulation::qpsk, phy::fec_mode::conv_half, 8);
        const auto fixed_fast = run_at(cfg, phy::modulation::psk16, phy::fec_mode::uncoded, 8);

        const std::string selected = phy::modulation_name(option.scheme) + std::string("/") +
                                     phy::fec_mode_name(option.fec);
        out.add_row({bench::fmt("%.0f", distance), bench::fmt("%.1f", probe.mean_snr_db),
                     selected, bench::fmt("%.2f", adaptive.goodput_bps / 1e6),
                     bench::fmt("%.2f", fixed_robust.goodput_bps / 1e6),
                     bench::fmt("%.2f", fixed_fast.goodput_bps / 1e6)});
    }
    out.print();
    return {};
}
