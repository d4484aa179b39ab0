#include "mmtag/cli/commands.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <vector>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/core/link_budget.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/core/metrics.hpp"
#include "mmtag/core/network.hpp"
#include "mmtag/core/supervised_link.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/mac/slotted_aloha.hpp"
#include "mmtag/net/soak_harness.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/obs/trace.hpp"
#include "mmtag/runtime/json_io.hpp"
#include "mmtag/runtime/result_writer.hpp"
#include "mmtag/scale/des_engine.hpp"
#include "mmtag/runtime/sweep_runner.hpp"
#include "mmtag/runtime/thread_pool.hpp"

namespace mmtag::cli {

namespace {

void reject_leftovers(const option_set& options)
{
    const auto leftover = options.unconsumed();
    if (!leftover.empty()) {
        throw std::invalid_argument("unknown option --" + leftover.front());
    }
}

/// --metrics[=FILE] / --trace=FILE shared by the Monte-Carlo commands.
struct obs_options {
    bool metrics = false;
    std::string metrics_path; ///< empty: embed/print only, no standalone file
    std::string trace_path;   ///< empty: tracing off
};

obs_options parse_obs_options(const option_set& options)
{
    obs_options out;
    // A bare `--metrics` collects and embeds/prints, but writes no file.
    if (const auto path = options.get_flag_or_string("metrics")) {
        out.metrics = true;
        out.metrics_path = *path;
    }
    out.trace_path = options.get_string("trace", "");
    return out;
}

/// --jobs N / --json PATH on top of the obs options: the commands that fan
/// trials out over the pool and write a result document (soak/scale/sweep).
struct run_options : obs_options {
    std::size_t jobs = 0;  ///< 0: all cores
    std::string json_path; ///< empty: no result document
};

run_options parse_run_options(const option_set& options)
{
    return {parse_obs_options(options),
            static_cast<std::size_t>(options.get_uint("jobs", 0)),
            options.get_string("json", "")};
}

/// Starts a trace session scoped to the command when a path was given;
/// stops and writes on destruction.
class trace_session {
public:
    explicit trace_session(std::string path) : path_(std::move(path))
    {
        if (!path_.empty()) obs::tracer::start();
    }
    ~trace_session()
    {
        if (path_.empty()) return;
        obs::tracer::stop();
        if (obs::tracer::write(path_)) {
            std::printf("wrote %s\n", path_.c_str());
        } else {
            std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
        }
    }

    trace_session(const trace_session&) = delete;
    trace_session& operator=(const trace_session&) = delete;

private:
    std::string path_;
};

void write_text_file(const std::string& path, const std::string& text)
{
    if (!runtime::write_text_file(path, text)) return;
    std::printf("wrote %s\n", path.c_str());
}

/// --metrics: prints the deterministic snapshot after the report, or writes
/// it to FILE for --metrics=FILE. Does nothing without --metrics.
void emit_metrics(const obs_options& obs_opts, const obs::metrics_registry& registry)
{
    if (!obs_opts.metrics) return;
    const std::string snapshot =
        registry.to_json_string(obs::metric_view::deterministic, 2);
    if (obs_opts.metrics_path.empty()) {
        std::printf("metrics:\n%s\n", snapshot.c_str());
    } else {
        write_text_file(obs_opts.metrics_path, snapshot);
    }
}

/// --scheme/--fec: sets the uplink frame format, which the receiver shares.
void apply_frame_options(const option_set& options, core::system_config& cfg)
{
    if (options.has("scheme")) {
        cfg.modulator.frame.scheme = phy::parse_modulation(options.get_string("scheme", ""));
    }
    if (options.has("fec")) {
        cfg.modulator.frame.fec = phy::parse_fec(options.get_string("fec", ""));
    }
    cfg.receiver.frame = cfg.modulator.frame;
}

} // namespace

int run_link(const option_set& options)
{
    const std::string preset = options.get_string("preset", "default");
    core::system_config cfg;
    if (preset == "default") cfg = core::fast_scenario();
    else if (preset == "warehouse") cfg = core::warehouse_scenario();
    else if (preset == "wearable") cfg = core::wearable_scenario();
    else throw std::invalid_argument("--preset must be default, warehouse, or wearable");
    cfg.distance_m = options.get_double("distance", cfg.distance_m);
    cfg.tag_incidence_rad = deg_to_rad(options.get_double("angle", 0.0));
    apply_frame_options(options, cfg);
    cfg.seed = options.get_uint("seed", 1);
    cfg.rician_k_db = options.get_double("k-factor", 100.0);
    const std::string reflector = options.get_string("reflector", "van-atta");
    if (reflector == "plate") cfg.reflector = core::reflector_kind::flat_plate;
    else if (reflector != "van-atta") {
        throw std::invalid_argument("--reflector must be van-atta or plate");
    }
    const auto frames = static_cast<std::size_t>(options.get_uint("frames", 10));
    const auto payload = static_cast<std::size_t>(options.get_uint("payload", 32));
    reject_leftovers(options);

    core::link_simulator sim(cfg);
    const auto report = sim.run_trials(frames, payload);
    std::printf("link: %.1f m, %.0f deg, %s/%s, %zu frames x %zu B\n", cfg.distance_m,
                rad_to_deg(cfg.tag_incidence_rad),
                phy::modulation_name(cfg.modulator.frame.scheme).c_str(),
                phy::fec_mode_name(cfg.modulator.frame.fec), frames, payload);
    std::printf("  snr      %.1f dB\n", report.mean_snr_db);
    std::printf("  evm      %.1f dB\n", report.mean_evm_db);
    std::printf("  ber      %s\n",
                core::format_ber(report.ber, frames * payload * 8).c_str());
    std::printf("  per      %.3f\n", report.per);
    std::printf("  goodput  %.3f Mb/s\n", report.goodput_bps / 1e6);
    std::printf("  energy   %.2f nJ/bit\n", report.tag_energy_per_bit_j * 1e9);
    return report.per < 1.0 ? 0 : 2;
}

int run_budget(const option_set& options)
{
    auto cfg = core::fast_scenario();
    cfg.transmitter.tx_power_dbm = options.get_double("tx-power", 27.0);
    const auto elements = static_cast<std::size_t>(options.get_uint("elements", 8));
    cfg.van_atta.element_count = elements;
    const double start = options.get_double("start", 0.5);
    const double stop = options.get_double("stop", 10.0);
    const auto points = static_cast<std::size_t>(options.get_uint("points", 8));
    reject_leftovers(options);

    const core::link_budget budget(cfg);
    std::printf("%-10s %-14s %-14s %-10s\n", "range_m", "at_tag_dBm", "at_AP_dBm",
                "SNR_dB");
    for (const auto& entry : budget.sweep(start, stop, points)) {
        std::printf("%-10.2f %-14.1f %-14.1f %-10.1f\n", entry.distance_m,
                    entry.incident_at_tag_dbm, entry.received_at_ap_dbm, entry.snr_db);
    }
    for (const auto& option : ap::rate_table()) {
        std::printf("max range %-7s %-9s: %.1f m\n",
                    phy::modulation_name(option.scheme).c_str(),
                    phy::fec_mode_name(option.fec),
                    budget.max_range_m(option.required_snr_db + 2.0));
    }
    return 0;
}

int run_network(const option_set& options)
{
    const auto tag_count = static_cast<std::size_t>(options.get_uint("tags", 20));
    const double max_range = options.get_double("max-range", 8.0);
    const auto payload = static_cast<std::size_t>(options.get_uint("payload", 256));
    const std::uint64_t seed = options.get_uint("seed", 1);
    reject_leftovers(options);
    if (tag_count == 0) throw std::invalid_argument("--tags must be >= 1");

    const auto tags = core::uniform_population(tag_count, 1.0, max_range, seed);
    const core::network net(core::fast_scenario(), tags);
    const auto report = net.run(seed, payload);

    std::printf("network: %zu tags within %.1f m\n", tag_count, max_range);
    std::printf("  inventory  %zu/%zu in %zu slots (%.0f%% efficiency)\n",
                report.inventory.tags_identified, report.inventory.tags_total,
                report.inventory.slots_used, 100.0 * report.inventory.efficiency());
    std::printf("  snr range  %.1f .. %.1f dB\n", report.min_snr_db, report.max_snr_db);
    std::printf("  tdma       %.3f ms cycle, %.2f Mb/s aggregate\n",
                report.tdma.cycle_time_s * 1e3, report.aggregate_goodput_bps / 1e6);
    return report.inventory.complete() ? 0 : 2;
}

int run_inventory(const option_set& options)
{
    const auto tag_count = static_cast<std::size_t>(options.get_uint("tags", 50));
    const auto seeds = static_cast<std::size_t>(options.get_uint("seeds", 10));
    const double success = options.get_double("success", 0.98);
    reject_leftovers(options);
    if (seeds == 0) throw std::invalid_argument("--seeds must be >= 1");

    mac::aloha_config cfg;
    cfg.singleton_success = success;
    const mac::aloha_inventory inventory(cfg);
    double slots = 0.0;
    double efficiency = 0.0;
    std::size_t incomplete = 0;
    for (std::size_t s = 0; s < seeds; ++s) {
        const auto stats = inventory.run(tag_count, 100 + s);
        slots += static_cast<double>(stats.slots_used);
        efficiency += stats.efficiency();
        if (!stats.complete()) ++incomplete;
    }
    std::printf("inventory: %zu tags, %zu seeds, PHY success %.2f\n", tag_count, seeds,
                success);
    std::printf("  mean slots       %.1f\n", slots / static_cast<double>(seeds));
    std::printf("  mean efficiency  %.3f (1/e ideal %.3f)\n",
                efficiency / static_cast<double>(seeds),
                mac::aloha_inventory::theoretical_peak_efficiency(tag_count));
    std::printf("  incomplete runs  %zu\n", incomplete);
    return incomplete == 0 ? 0 : 2;
}

int run_faults(const option_set& options)
{
    const double fault_rate = options.get_double("fault-rate", 150.0);
    const double mean_duration_ms = options.get_double("mean-duration", 2.0);
    const auto frames = static_cast<std::size_t>(options.get_uint("frames", 300));
    const auto payload = static_cast<std::size_t>(options.get_uint("payload", 24));
    const double distance = options.get_double("distance", 4.0);
    const std::uint64_t seed = options.get_uint("seed", 11);
    const std::uint64_t fault_seed = options.get_uint("fault-seed", 42);
    const auto trials = static_cast<std::size_t>(options.get_uint("trials", 1));
    const auto jobs = static_cast<std::size_t>(options.get_uint("jobs", 1));
    const obs_options obs_opts = parse_obs_options(options);
    reject_leftovers(options);
    if (fault_rate < 0.0) throw std::invalid_argument("--fault-rate must be >= 0");
    if (mean_duration_ms <= 0.0) {
        throw std::invalid_argument("--mean-duration must be > 0");
    }
    if (frames == 0) throw std::invalid_argument("--frames must be >= 1");
    if (trials == 0) throw std::invalid_argument("--trials must be >= 1");

    auto cfg = core::fast_scenario();
    cfg.distance_m = distance;
    cfg.seed = seed;

    fault::fault_schedule::config sched_cfg;
    sched_cfg.horizon_s = 0.12;
    sched_cfg.event_rate_hz = fault_rate;
    sched_cfg.mean_duration_s = mean_duration_ms * 1e-3;
    const fault::fault_schedule schedule(sched_cfg, fault_seed);

    std::printf("faults: %.0f events/s, mean %.1f ms, %zu frames x %zu B, "
                "fault seed %llu, %zu trial%s\n",
                fault_rate, mean_duration_ms, frames, payload,
                static_cast<unsigned long long>(fault_seed), trials,
                trials == 1 ? "" : "s");
    for (const auto kind :
         {fault::fault_kind::blockage, fault::fault_kind::carrier_dropout,
          fault::fault_kind::lo_step, fault::fault_kind::interferer,
          fault::fault_kind::brownout}) {
        std::printf("  %-16s %zu scheduled\n", fault::fault_kind_name(kind),
                    schedule.count(kind));
    }

    // Task grid on the runtime pool: (trial, arm) pairs, each with its own
    // simulator and injector. Trial t perturbs the link with fault seed
    // fault_seed + t (trial 0 reproduces the single-trial output exactly),
    // and the per-arm reduction folds trials in order — bit-identical for
    // any --jobs value.
    const ap::supervisor_config sup_cfg{};
    std::vector<ap::supervised_report> sup_trials(trials);
    std::vector<ap::supervised_report> base_trials(trials);
    // One registry per task, merged in task order after the barrier, so the
    // observability aggregates are --jobs-invariant like everything else.
    std::vector<obs::metrics_registry> task_metrics(obs_opts.metrics ? 2 * trials : 0);
    const trace_session trace(obs_opts.trace_path);
    const auto start = std::chrono::steady_clock::now();
    runtime::thread_pool pool(jobs);
    pool.parallel_for(2 * trials, [&](std::size_t task) {
        const std::size_t trial = task / 2;
        const bool supervised = task % 2 == 0;
        const fault::fault_schedule trial_schedule(sched_cfg, fault_seed + trial);
        core::link_simulator link(cfg);
        fault::fault_injector faults{trial_schedule};
        fault::fault_injector* injector = fault_rate > 0.0 ? &faults : nullptr;
        obs::metrics_registry* registry =
            obs_opts.metrics ? &task_metrics[task] : nullptr;
        if (registry != nullptr) {
            link.attach_metrics(registry);
            if (injector != nullptr) injector->attach_metrics(registry);
        }
        if (supervised) {
            ap::supervisor_config task_cfg = sup_cfg;
            task_cfg.metrics = registry;
            sup_trials[trial] =
                core::run_supervised_link(link, injector, task_cfg, frames, payload);
        } else {
            base_trials[trial] =
                core::run_baseline_link(link, injector, 8, frames, payload);
        }
    });
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    ap::supervised_report sup = sup_trials.front();
    ap::supervised_report base = base_trials.front();
    for (std::size_t t = 1; t < trials; ++t) {
        sup.merge(sup_trials[t]);
        base.merge(base_trials[t]);
    }

    std::printf("  %-14s %10s %10s\n", "", "supervised", "plain-arq");
    std::printf("  %-14s %10.3f %10.3f\n", "goodput Mb/s", sup.goodput_bps / 1e6,
                base.goodput_bps / 1e6);
    std::printf("  %-14s %10.3f %10.3f\n", "delivery", sup.delivery_ratio(),
                base.delivery_ratio());
    std::printf("  %-14s %10.2f %10.2f\n", "elapsed ms", sup.elapsed_s * 1e3,
                base.elapsed_s * 1e3);
    std::printf("  supervisor: %zu outages, %zu recoveries, %zu reacquisitions, "
                "%zu probes\n",
                sup.recovery.outages, sup.recovery.recoveries,
                sup.recovery.reacquisitions, sup.recovery.probes);
    std::printf("  supervisor: detect %.2f ms mean / %.2f ms max, recover %.2f ms "
                "mean / %.2f ms max\n",
                sup.recovery.mean_detect_s() * 1e3, sup.recovery.detect_max_s * 1e3,
                sup.recovery.mean_recover_s() * 1e3, sup.recovery.recover_max_s * 1e3);
    std::printf("  runtime: %zu tasks in %.2f s wall (%zu jobs)\n", 2 * trials,
                wall_s, pool.jobs());

    obs::metrics_registry merged;
    for (const auto& registry : task_metrics) merged.merge(registry);
    emit_metrics(obs_opts, merged);
    // Exit 3: the supervisor saw outages but never completed a recovery —
    // the resilience machinery itself failed, which is worse than merely
    // losing the goodput comparison (exit 2).
    if (sup.recovery.outages > 0 && sup.recovery.recoveries == 0) return 3;
    return sup.goodput_bps >= base.goodput_bps ? 0 : 2;
}

int run_soak(const option_set& options)
{
    net::soak_config cfg;
    cfg.tag_count = static_cast<std::size_t>(options.get_uint("tags", 6));
    cfg.faulted_count = static_cast<std::size_t>(options.get_uint("faulted", 2));
    cfg.rounds = static_cast<std::size_t>(options.get_uint("rounds", 36));
    cfg.payload_bytes = static_cast<std::size_t>(options.get_uint("payload", 16));
    cfg.trials = static_cast<std::size_t>(options.get_uint("trials", 2));
    cfg.seed = options.get_uint("seed", 1);
    cfg.fault_seed = options.get_uint("fault-seed", 42);
    cfg.min_range_m = options.get_double("min-range", cfg.min_range_m);
    cfg.max_range_m = options.get_double("max-range", cfg.max_range_m);
    const run_options obs_opts = parse_run_options(options);
    reject_leftovers(options);

    std::printf("soak: %zu tags (%zu faulted), %zu rounds x %zu trials, "
                "seed %llu, fault seed %llu\n",
                cfg.tag_count, cfg.faulted_count, cfg.rounds, cfg.trials,
                static_cast<unsigned long long>(cfg.seed),
                static_cast<unsigned long long>(cfg.fault_seed));

    obs::metrics_registry metrics;
    const trace_session trace(obs_opts.trace_path);
    const auto start = std::chrono::steady_clock::now();
    runtime::thread_pool pool(obs_opts.jobs);
    const net::soak_report report =
        net::run_soak(cfg, pool, obs_opts.metrics ? &metrics : nullptr);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    std::printf("  %-10s %12s %12s\n", "tag", "faulted", "reference");
    for (std::size_t i = 0; i < report.delivered_per_tag.size(); ++i) {
        std::printf("  %-10zu %12llu %12llu%s\n", i,
                    static_cast<unsigned long long>(report.delivered_per_tag[i]),
                    static_cast<unsigned long long>(report.reference_per_tag[i]),
                    i < report.faulted_count ? "  (faulted)" : "");
    }
    std::printf("  sessions: %zu transitions, %zu readmissions, "
                "max readmit latency %zu rounds\n",
                report.transitions, report.readmissions, report.max_readmit_rounds);
    if (report.healthy_share_min_observed >= 0.0) {
        std::printf("  healthy-tag delivery share: %.3f (bound %.3f)\n",
                    report.healthy_share_min_observed, cfg.healthy_share_min);
    }
    for (const auto& inv : report.invariants) {
        std::printf("  invariant %-22s %s%s%s\n", inv.name.c_str(),
                    inv.passed ? "pass" : "FAIL", inv.passed ? "" : ": ",
                    inv.detail.c_str());
    }
    std::printf("  runtime: %zu tasks in %.2f s wall (%zu jobs)\n", 2 * cfg.trials,
                wall_s, pool.jobs());

    if (!obs_opts.json_path.empty()) {
        write_text_file(obs_opts.json_path, report.to_json().dump(2));
    }
    emit_metrics(obs_opts, metrics);
    return report.all_passed() ? 0 : 3;
}

int run_scale(const option_set& options)
{
    scale::scale_config cfg;
    cfg.topology.tag_count = static_cast<std::size_t>(options.get_uint("tags", 1000));
    cfg.topology.ap_count = static_cast<std::size_t>(options.get_uint("aps", 4));
    cfg.topology.layout = scale::parse_layout(options.get_string("layout", "grid"));
    cfg.topology.floor_m = options.get_double("floor", cfg.topology.floor_m);
    cfg.frames = static_cast<std::size_t>(options.get_uint("frames", 50));
    cfg.payload_bytes = static_cast<std::size_t>(options.get_uint("payload", 16));
    cfg.faulted = static_cast<std::size_t>(
        options.get_uint("faulted", cfg.topology.tag_count / 10));
    cfg.seed = options.get_uint("seed", 1);
    cfg.fault_seed = options.get_uint("fault-seed", 42);
    cfg.trials = static_cast<std::size_t>(options.get_uint("trials", 1));
    cfg.scenario = core::fast_scenario();
    const run_options obs_opts = parse_run_options(options);
    reject_leftovers(options);

    std::printf("scale: %zu tags, %zu APs (%s layout), %zu rounds x %zu trials, "
                "seed %llu, fault seed %llu (%zu tags faulted)\n",
                cfg.topology.tag_count, cfg.topology.ap_count,
                scale::layout_name(cfg.topology.layout), cfg.frames, cfg.trials,
                static_cast<unsigned long long>(cfg.seed),
                static_cast<unsigned long long>(cfg.fault_seed), cfg.faulted);

    obs::metrics_registry metrics;
    const trace_session trace(obs_opts.trace_path);
    const auto start = std::chrono::steady_clock::now();
    const scale::scale_result result =
        scale::run_scale(cfg, obs_opts.jobs, obs_opts.metrics ? &metrics : nullptr);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    std::printf("  phy table: %s (%s)\n", result.phy_table_path.c_str(),
                result.cache_hit ? "cache hit" : "regenerated");
    std::printf("  %llu events, %llu data slots, %llu probe slots over %.3f s "
                "simulated\n",
                static_cast<unsigned long long>(result.events),
                static_cast<unsigned long long>(result.data_slots),
                static_cast<unsigned long long>(result.probe_slots),
                result.sim_time_s);
    std::printf("  delivered %llu frames (%.0f bps aggregate goodput, fairness "
                "%.3f)\n",
                static_cast<unsigned long long>(result.delivered),
                result.goodput_bps(), result.fairness_index());
    std::printf("  sessions: %llu transitions, %llu readmissions, readmit "
                "latency mean %.1f / max %llu rounds\n",
                static_cast<unsigned long long>(result.transitions),
                static_cast<unsigned long long>(result.readmissions),
                result.readmit_latency_mean_rounds,
                static_cast<unsigned long long>(result.readmit_latency_max_rounds));
    std::printf("  runtime: %zu trials in %.2f s wall (%zu jobs, %.0f events/s)\n",
                cfg.trials, wall_s, result.jobs,
                runtime::per_second(result.events, wall_s));

    if (!obs_opts.json_path.empty()) {
        write_text_file(obs_opts.json_path, result.to_json().dump(2));
    }
    emit_metrics(obs_opts, metrics);
    return 0;
}

namespace {

/// Sweep aggregate pairing the link report with the trial's observability
/// registry, so metrics ride the same pre-allocated-slot + ordered-fold path
/// as the report itself (and stay --jobs-invariant for free).
struct observed_report {
    core::link_report report;
    obs::metrics_registry metrics;

    void merge(const observed_report& other)
    {
        report.merge(other.report);
        metrics.merge(other.metrics);
    }
};

} // namespace

int run_sweep(const option_set& options)
{
    const double start_m = options.get_double("start", 1.0);
    const double stop_m = options.get_double("stop", 6.0);
    const auto points = static_cast<std::size_t>(options.get_uint("points", 6));
    const auto trials = static_cast<std::size_t>(options.get_uint("trials", 4));
    const auto frames = static_cast<std::size_t>(options.get_uint("frames", 6));
    const auto payload = static_cast<std::size_t>(options.get_uint("payload", 32));
    const std::uint64_t seed = options.get_uint("seed", 1);
    const run_options obs_opts = parse_run_options(options);

    auto cfg = core::fast_scenario();
    apply_frame_options(options, cfg);
    reject_leftovers(options);
    if (points == 0) throw std::invalid_argument("--points must be >= 1");
    if (trials == 0) throw std::invalid_argument("--trials must be >= 1");
    if (frames == 0) throw std::invalid_argument("--frames must be >= 1");
    if (stop_m < start_m) throw std::invalid_argument("--stop must be >= --start");

    const auto distance_at = [&](std::size_t point) {
        if (points == 1) return start_m;
        return start_m + (stop_m - start_m) * static_cast<double>(point) /
                             static_cast<double>(points - 1);
    };

    std::printf("sweep: %.1f..%.1f m over %zu points, %zu trials x %zu frames x "
                "%zu B (%s/%s)\n",
                start_m, stop_m, points, trials, frames, payload,
                phy::modulation_name(cfg.modulator.frame.scheme).c_str(),
                phy::fec_mode_name(cfg.modulator.frame.fec));

    runtime::sweep_options sweep;
    sweep.jobs = obs_opts.jobs;
    sweep.base_seed = seed;
    sweep.trials_per_point = trials;
    sweep.progress = runtime::stderr_progress();
    const bool want_metrics = obs_opts.metrics;
    const trace_session trace(obs_opts.trace_path);
    const auto out = runtime::run_sweep<observed_report>(
        sweep, points, [&](std::size_t point, std::size_t, std::uint64_t trial_seed) {
            auto trial_cfg = cfg;
            trial_cfg.distance_m = distance_at(point);
            trial_cfg.seed = trial_seed;
            core::link_simulator sim(trial_cfg);
            observed_report result;
            if (want_metrics) sim.attach_metrics(&result.metrics);
            result.report = sim.run_trials(frames, payload);
            return result;
        });

    std::printf("%-10s %-10s %-12s %-10s %-8s %-12s\n", "range_m", "snr_dB", "ber",
                "ber_ci95", "per", "goodput_Mbps");
    runtime::result_writer results("SWEEP", "BER/goodput vs distance (CLI sweep)",
                                   {"distance_m"}, seed);
    obs::metrics_registry sweep_metrics;
    for (std::size_t point = 0; point < points; ++point) {
        const auto& report = out.points[point].aggregate.report;
        if (want_metrics) sweep_metrics.merge(out.points[point].aggregate.metrics);
        std::printf("%-10.2f %-10.1f %-12.2e %-10.2e %-8.3f %-12.3f\n",
                    distance_at(point), report.mean_snr_db, report.ber,
                    report.ber_confidence(), report.per, report.goodput_bps / 1e6);
        auto axis = runtime::json_value::object();
        axis.set("distance_m", runtime::json_value::number(distance_at(point)));
        results.add_point(std::move(axis), trials,
                          runtime::result_writer::metrics(report));
    }
    if (want_metrics) {
        // Deterministic view into the result document (schema /2); the
        // wall-clock timer histograms go to the run section instead.
        results.set_metrics(sweep_metrics.to_json(obs::metric_view::deterministic));
        results.set_run_profile(sweep_metrics.to_json(obs::metric_view::timing));
        if (!obs_opts.metrics_path.empty()) {
            write_text_file(
                obs_opts.metrics_path,
                sweep_metrics.to_json_string(obs::metric_view::deterministic, 2));
        }
    }

    std::printf("%s\n",
                runtime::summary_line(points, out.trials, out.wall_s, out.jobs).c_str());
    if (!obs_opts.json_path.empty()) {
        const auto written =
            results.write(obs_opts.json_path, out.wall_s, out.jobs, out.trials_per_s());
        if (!written.empty()) std::printf("wrote %s\n", written.c_str());
    }
    return 0;
}

const char* usage()
{
    return "usage: mmtag_sim <command> [--key value ...]\n"
           "\n"
           "commands:\n"
           "  link       end-to-end single-link simulation\n"
           "             --distance M --angle DEG --scheme bpsk|qpsk|8psk|16psk\n"
           "             --fec none|1/2|2/3|3/4 --frames N --payload BYTES\n"
           "             --reflector van-atta|plate --k-factor DB --seed S\n"
           "  budget     analytic link budget sweep\n"
           "             --start M --stop M --points N --tx-power DBM --elements N\n"
           "  network    inventory + TDMA over a random population\n"
           "             --tags N --max-range M --payload BYTES --seed S\n"
           "  inventory  slotted-ALOHA statistics\n"
           "             --tags N --seeds N --success P\n"
           "  faults     fault-injected link, supervisor on vs off\n"
           "             --fault-rate HZ --mean-duration MS --frames N\n"
           "             --payload BYTES --distance M --seed S --fault-seed S\n"
           "             --trials N --jobs N (0 = auto)\n"
           "             --metrics[=FILE] --trace FILE\n"
           "  soak       chaos soak: network supervisor vs multi-tag faults,\n"
           "             invariant-checked (exit 3 on any failure)\n"
           "             --tags N --faulted N --rounds N --payload BYTES\n"
           "             --trials N --seed S --fault-seed S --min-range M\n"
           "             --max-range M --jobs N (0 = auto)\n"
           "             --json PATH --metrics[=FILE] --trace FILE\n"
           "  scale      PHY-abstracted discrete-event network simulation\n"
           "             --tags N --aps N --layout grid|poisson|clustered\n"
           "             --floor M --frames N --payload BYTES --faulted N --seed S\n"
           "             --fault-seed S --trials N --jobs N (0 = auto)\n"
           "             --json PATH --metrics[=FILE] --trace FILE\n"
           "  sweep      parallel BER/goodput vs distance Monte-Carlo sweep\n"
           "             --start M --stop M --points N --trials N --frames N\n"
           "             --payload BYTES --scheme MOD --fec MODE --seed S\n"
           "             --jobs N (0 = auto) --json PATH\n"
           "             --metrics[=FILE] (observability counters/histograms;\n"
           "             embedded in --json output, schema result/2)\n"
           "             --trace FILE (Chrome trace_event JSON)\n"
           "  help       this text\n";
}

int dispatch(int argc, const char* const* argv)
{
    try {
        const auto options = option_set::parse(argc, argv);
        if (options.command() == "link") return run_link(options);
        if (options.command() == "budget") return run_budget(options);
        if (options.command() == "network") return run_network(options);
        if (options.command() == "inventory") return run_inventory(options);
        if (options.command() == "faults") return run_faults(options);
        if (options.command() == "soak") return run_soak(options);
        if (options.command() == "scale") return run_scale(options);
        if (options.command() == "sweep") return run_sweep(options);
        if (options.command() == "help") {
            std::printf("%s", usage());
            return 0;
        }
        std::fprintf(stderr, "unknown command '%s'\n%s", options.command().c_str(),
                     usage());
        return 1;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n%s", error.what(), usage());
        return 1;
    }
}

} // namespace mmtag::cli
