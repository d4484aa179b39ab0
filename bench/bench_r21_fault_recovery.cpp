// R21 — Fault injection and supervised outage recovery (extension).
// A seeded fault schedule (blockage bursts, carrier dropouts, LO steps,
// interferer bursts, tag brownouts) perturbs the sample-accurate link while
// framed traffic is offered two ways: through the AP link supervisor
// (CRC-streak outage detection, capped-exponential-backoff retransmission,
// MCS fallback, watchdog reacquisition) and through plain fixed-rate
// stop-and-wait ARQ. Expected shape: the supervisor degrades gracefully as
// the fault rate grows, while the unsupervised link falls off a cliff the
// moment a persistent fault (LO step) lands — it can retransmit forever but
// never re-locks. Both arms see bit-identical faults per seed.
//
// The (cell x arm) grid — the heaviest workload in the bench suite — runs
// through core::run_recovery_arms on the runtime's thread pool; every arm
// owns its simulator and injector, so results are bit-identical for any
// --jobs value.
#include <optional>
#include <vector>

#include "experiments.hpp"
#include "mmtag/core/supervised_link.hpp"
#include "mmtag/runtime/thread_pool.hpp"

using namespace mmtag;

namespace {

fault::fault_schedule::config schedule_config(double rate_hz, double mean_duration_s)
{
    fault::fault_schedule::config cfg;
    cfg.horizon_s = 80e-3; // covers the whole offered-traffic window
    cfg.event_rate_hz = rate_hz;
    cfg.mean_duration_s = mean_duration_s;
    return cfg;
}

core::system_config link_config(std::uint64_t seed)
{
    auto cfg = core::fast_scenario();
    cfg.distance_m = 4.0; // ~21 dB margin over QPSK-1/2: healthy but finite
    cfg.seed = seed;
    return cfg;
}

struct fault_cell {
    double rate_hz;
    double duration_s;
};

constexpr fault_cell kCells[] = {{0.0, 2e-3}, {150.0, 1e-3}, {150.0, 3e-3},
                                 {400.0, 1e-3}, {400.0, 3e-3}};

} // namespace

cli::outcome bench::r21_fault_recovery(const bench::bench_options& opts)
{
    constexpr std::size_t frames = 500;
    constexpr std::size_t payload_bytes = 24;
    const std::uint64_t fault_seed = opts.flags.get_uint("fault-seed", 42);

    const std::size_t cell_count = std::size(kCells);

    // Arms: [0] the fault-free supervised reference, then a (supervised,
    // plain) pair per cell, both arms of a cell seeing the same faults.
    std::vector<core::recovery_arm> arms{{std::nullopt, true}};
    for (std::size_t cell_index = 0; cell_index < cell_count; ++cell_index) {
        const auto& cell = kCells[cell_index];
        std::optional<fault::fault_schedule> faults;
        if (cell.rate_hz > 0.0) {
            faults.emplace(schedule_config(cell.rate_hz, cell.duration_s),
                           fault_seed * 1'000'003 + cell_index);
        }
        arms.push_back({faults, true});
        arms.push_back({std::move(faults), false});
    }
    runtime::thread_pool pool(opts.jobs);
    const auto reports =
        core::run_recovery_arms(link_config(11), arms, frames, payload_bytes, pool);
    const ap::supervised_report& reference = reports[0];

    runtime::result_writer results(opts.id, opts.title, {"fault_rate_hz", "mean_duration_ms"},
                                   fault_seed);
    bench::table out({"fault_rate_hz", "mean_dur_ms", "sup_goodput_mbps",
                      "base_goodput_mbps", "sup_delivery", "base_delivery",
                      "outages", "detect_ms", "recover_ms", "reacq", "retained"},
                     opts.csv);
    for (std::size_t cell_index = 0; cell_index < cell_count; ++cell_index) {
        const auto& cell = kCells[cell_index];
        const auto& sup = reports[1 + 2 * cell_index];
        const auto& base = reports[2 + 2 * cell_index];
        out.add_row({bench::fmt("%.0f", cell.rate_hz),
                     bench::fmt("%.0f", cell.duration_s * 1e3),
                     bench::fmt("%.3f", sup.goodput_bps / 1e6),
                     bench::fmt("%.3f", base.goodput_bps / 1e6),
                     bench::fmt("%.3f", sup.delivery_ratio()),
                     bench::fmt("%.3f", base.delivery_ratio()),
                     bench::fmt("%.0f", static_cast<double>(sup.recovery.outages)),
                     bench::fmt("%.2f", sup.recovery.mean_detect_s() * 1e3),
                     bench::fmt("%.2f", sup.recovery.mean_recover_s() * 1e3),
                     bench::fmt("%.0f", static_cast<double>(sup.recovery.reacquisitions)),
                     bench::fmt("%.3f", sup.goodput_retained(reference.goodput_bps))});

        auto axis = runtime::json_value::object();
        axis.set("fault_rate_hz", runtime::json_value::number(cell.rate_hz));
        axis.set("mean_duration_ms", runtime::json_value::number(cell.duration_s * 1e3));
        auto metrics = runtime::json_value::object();
        metrics.set("supervised_goodput_bps",
                    runtime::json_value::number(sup.goodput_bps));
        metrics.set("baseline_goodput_bps", runtime::json_value::number(base.goodput_bps));
        metrics.set("supervised_delivery",
                    runtime::json_value::number(sup.delivery_ratio()));
        metrics.set("baseline_delivery", runtime::json_value::number(base.delivery_ratio()));
        metrics.set("outages", runtime::json_value::unsigned_integer(sup.recovery.outages));
        metrics.set("reacquisitions",
                    runtime::json_value::unsigned_integer(sup.recovery.reacquisitions));
        metrics.set("mean_detect_s",
                    runtime::json_value::number(sup.recovery.mean_detect_s()));
        metrics.set("mean_recover_s",
                    runtime::json_value::number(sup.recovery.mean_recover_s()));
        metrics.set("goodput_retained",
                    runtime::json_value::number(
                        sup.goodput_retained(reference.goodput_bps)));
        results.add_point(std::move(axis), 1, std::move(metrics));
    }
    out.print();
    return {.document = results.to_json(), .tasks = arms.size(), .jobs = pool.jobs()};
}
