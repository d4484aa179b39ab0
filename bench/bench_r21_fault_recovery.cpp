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
// The (cell x arm) grid — the heaviest workload in the bench suite — fans
// out across the runtime's thread pool; every arm owns its simulator and
// injector, so results are bit-identical for any --jobs value.
#include <chrono>
#include <vector>

#include "bench_util.hpp"
#include "mmtag/core/supervised_link.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/runtime/result_writer.hpp"
#include "mmtag/runtime/sweep_runner.hpp"
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

int main(int argc, char** argv)
{
    const auto opts = bench::bench_options::parse(argc, argv, {"fault-seed"});
    bench::banner("R21", "goodput and recovery under injected faults, supervisor on/off",
                  opts.csv);

    constexpr std::size_t frames = 500;
    constexpr std::size_t payload_bytes = 24;
    const std::uint64_t fault_seed = opts.extra_u64("fault-seed", 42);

    const ap::supervisor_config sup_cfg{};
    constexpr std::size_t baseline_retries = 8;
    const std::size_t cell_count = std::size(kCells);

    // Task grid: [0] fault-free reference, then (cell, arm) pairs. Each task
    // owns its link and injector; seeds match the historical serial bench.
    std::vector<ap::supervised_report> sup_reports(cell_count);
    std::vector<ap::supervised_report> base_reports(cell_count);
    ap::supervised_report reference;

    const auto start = std::chrono::steady_clock::now();
    runtime::thread_pool pool(opts.jobs);
    pool.parallel_for(1 + 2 * cell_count, [&](std::size_t task) {
        if (task == 0) {
            core::link_simulator link(link_config(11));
            reference = core::run_supervised_link(link, nullptr, sup_cfg, frames,
                                                  payload_bytes);
            return;
        }
        const std::size_t cell_index = (task - 1) / 2;
        const bool supervised = (task - 1) % 2 == 0;
        const auto& cell = kCells[cell_index];
        const auto sched_cfg = schedule_config(cell.rate_hz, cell.duration_s);
        const std::uint64_t cell_seed = fault_seed * 1'000'003 + cell_index;

        core::link_simulator link(link_config(11));
        fault::fault_injector faults{fault::fault_schedule(sched_cfg, cell_seed)};
        fault::fault_injector* injector = cell.rate_hz > 0.0 ? &faults : nullptr;
        if (supervised) {
            sup_reports[cell_index] = core::run_supervised_link(link, injector, sup_cfg,
                                                                frames, payload_bytes);
        } else {
            base_reports[cell_index] = core::run_baseline_link(
                link, injector, baseline_retries, frames, payload_bytes);
        }
    });
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    runtime::result_writer results(
        "R21", "goodput and recovery under injected faults, supervisor on/off",
        {"fault_rate_hz", "mean_duration_ms"}, fault_seed);
    bench::table out({"fault_rate_hz", "mean_dur_ms", "sup_goodput_mbps",
                      "base_goodput_mbps", "sup_delivery", "base_delivery",
                      "outages", "detect_ms", "recover_ms", "reacq", "retained"},
                     opts.csv);
    for (std::size_t cell_index = 0; cell_index < cell_count; ++cell_index) {
        const auto& cell = kCells[cell_index];
        const auto& sup = sup_reports[cell_index];
        const auto& base = base_reports[cell_index];
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

    const std::size_t tasks = 1 + 2 * cell_count;
    const auto written =
        results.write(opts.json_path, wall_s, pool.jobs(),
                      runtime::per_second(tasks, wall_s));
    if (!opts.csv) {
        std::printf("\n%s\n", runtime::summary_line(cell_count, tasks, wall_s, pool.jobs())
                                  .c_str());
        if (!written.empty()) std::printf("wrote %s\n", written.c_str());
    }
    return 0;
}
