// R23 — Scale-out network simulation: aggregate goodput, per-tag fairness,
// and re-admission latency as the tag population sweeps 100 -> 10,000 over
// four APs (extension). The calibrated phy_table + discrete-event engine
// replace the sample-accurate PHY, so ten thousand tags simulate in
// seconds. Expected shape: aggregate goodput climbs while TDMA slots remain
// available and then saturates as every AP round fills; Jain fairness stays
// near 1 until quarantine churn from the shared fault mix dominates the
// schedule at high density; re-admission latency grows with cell size
// because probe slots compete with data for round airtime.
//
// Trials fan out across the runtime thread pool inside scale::run_scale and
// fold in trial order; the emitted JSON is bit-identical for any --jobs.
#include <chrono>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mmtag/runtime/result_writer.hpp"
#include "mmtag/runtime/sweep_runner.hpp"
#include "mmtag/runtime/thread_pool.hpp"
#include "mmtag/scale/des_engine.hpp"

using namespace mmtag;

int main(int argc, char** argv)
{
    const auto opts = bench::bench_options::parse(argc, argv,
                                                  {"aps", "frames", "trials", "fault-seed"});
    bench::banner("R23", "scale-out: goodput, fairness, re-admission vs tag count",
                  opts.csv);

    const std::vector<std::size_t> tag_counts{100, 300, 1000, 3000, 10000};
    const std::size_t aps = opts.extra_u64("aps", 4);
    const std::size_t frames = opts.extra_u64("frames", 30);
    const std::size_t trials = opts.extra_u64("trials", 1);
    const std::uint64_t fault_seed = opts.extra_u64("fault-seed", 42);

    std::vector<scale::scale_result> results_per_point;
    const auto start = std::chrono::steady_clock::now();
    std::size_t jobs_used = 1;
    for (const std::size_t tags : tag_counts) {
        scale::scale_config cfg;
        cfg.topology.tag_count = tags;
        cfg.topology.ap_count = aps;
        cfg.frames = frames;
        cfg.trials = trials;
        cfg.faulted = tags / 10;
        cfg.seed = opts.seed;
        cfg.fault_seed = fault_seed;
        auto result = scale::run_scale(cfg, opts.jobs);
        jobs_used = result.jobs;
        results_per_point.push_back(std::move(result));
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    runtime::result_writer results(
        "R23", "scale-out: goodput, fairness, re-admission vs tag count", {"tags"},
        opts.seed);
    bench::table out({"tags", "goodput_mbps", "fairness", "delivery", "readmissions",
                      "readmit_mean", "readmit_max"},
                     opts.csv);
    for (std::size_t i = 0; i < tag_counts.size(); ++i) {
        const auto& r = results_per_point[i];
        const double delivery =
            r.data_slots > 0 ? static_cast<double>(r.delivered) /
                                   static_cast<double>(r.data_slots)
                             : 0.0;
        out.add_row({bench::fmt("%.0f", static_cast<double>(tag_counts[i])),
                     bench::fmt("%.3f", r.goodput_bps() / 1e6),
                     bench::fmt("%.3f", r.fairness_index()),
                     bench::fmt("%.3f", delivery),
                     bench::fmt("%.0f", static_cast<double>(r.readmissions)),
                     bench::fmt("%.1f", r.readmit_latency_mean_rounds),
                     bench::fmt("%.0f", static_cast<double>(r.readmit_latency_max_rounds))});

        auto axis = runtime::json_value::object();
        axis.set("tags", runtime::json_value::unsigned_integer(tag_counts[i]));
        auto metrics = runtime::json_value::object();
        metrics.set("goodput_bps", runtime::json_value::number(r.goodput_bps()));
        metrics.set("fairness", runtime::json_value::number(r.fairness_index()));
        metrics.set("delivery_ratio", runtime::json_value::number(delivery));
        metrics.set("data_slots", runtime::json_value::unsigned_integer(r.data_slots));
        metrics.set("probe_slots", runtime::json_value::unsigned_integer(r.probe_slots));
        metrics.set("transitions", runtime::json_value::unsigned_integer(r.transitions));
        metrics.set("readmissions",
                    runtime::json_value::unsigned_integer(r.readmissions));
        metrics.set("readmit_latency_mean_rounds",
                    runtime::json_value::number(r.readmit_latency_mean_rounds));
        metrics.set("readmit_latency_max_rounds",
                    runtime::json_value::unsigned_integer(r.readmit_latency_max_rounds));
        metrics.set("sim_time_s", runtime::json_value::number(r.sim_time_s));
        char hash_hex[17];
        std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                      static_cast<unsigned long long>(r.event_log_hash));
        metrics.set("event_log_hash", runtime::json_value::string(hash_hex));
        results.add_point(std::move(axis), trials, std::move(metrics));
    }
    out.print();

    const std::size_t total_trials = trials * tag_counts.size();
    std::uint64_t total_events = 0;
    for (const auto& r : results_per_point) total_events += r.events;
    const auto written =
        results.write(opts.json_path, wall_s, jobs_used,
                      runtime::per_second(total_trials, wall_s));
    if (!opts.csv) {
        std::printf("\n%s, %.0f events/s\n",
                    runtime::summary_line(tag_counts.size(), total_trials, wall_s, jobs_used)
                        .c_str(),
                    runtime::per_second(total_events, wall_s));
        if (!written.empty()) std::printf("wrote %s\n", written.c_str());
    }
    return 0;
}
