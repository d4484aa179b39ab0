#include "mmtag/cli/commands.hpp"

#include <cstdio>
#include <optional>
#include <random>
#include <stdexcept>
#include <vector>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/core/link_budget.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/core/metrics.hpp"
#include "mmtag/core/network.hpp"
#include "mmtag/core/supervised_link.hpp"
#include "mmtag/fault/fault_schedule.hpp"
#include "mmtag/mac/slotted_aloha.hpp"
#include "mmtag/net/soak_harness.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/runtime/result_writer.hpp"
#include "mmtag/scale/des_engine.hpp"
#include "mmtag/runtime/sweep_runner.hpp"
#include "mmtag/runtime/thread_pool.hpp"

namespace mmtag::cli {

namespace {

/// Reads --key through `parse`, naming the flag in the error a bad value
/// raises: "--scheme: unknown modulation 'x' (...)".
template <typename Parse>
auto parse_option(const option_set& options, const std::string& key,
                  const std::string& fallback, Parse parse)
{
    const std::string text = options.get_string(key, fallback);
    try {
        return parse(text);
    } catch (const std::invalid_argument& error) {
        throw std::invalid_argument("--" + key + ": " + error.what());
    }
}

/// --scheme/--fec: sets the uplink frame format, which the receiver shares.
void apply_frame_options(const option_set& options, core::system_config& cfg)
{
    if (options.has("scheme")) {
        cfg.modulator.frame.scheme = parse_option(options, "scheme", "", phy::parse_modulation);
    }
    if (options.has("fec")) {
        cfg.modulator.frame.fec = parse_option(options, "fec", "", phy::parse_fec);
    }
    cfg.receiver.frame = cfg.modulator.frame;
}

/// Exit 2: no frame got through.
outcome run_link(const option_set& options, const context&)
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
    if (frames == 0) throw std::invalid_argument("--frames must be >= 1");
    if (payload == 0) throw std::invalid_argument("--payload must be >= 1");

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
    return {.status = report.per < 1.0 ? 0 : 2};
}

outcome run_budget(const option_set& options, const context&)
{
    auto cfg = core::fast_scenario();
    cfg.transmitter.tx_power_dbm = options.get_double("tx-power", 27.0);
    const auto elements = static_cast<std::size_t>(options.get_uint("elements", 8));
    cfg.van_atta.element_count = elements;
    const double start = options.get_double("start", 0.5);
    const double stop = options.get_double("stop", 10.0);
    const auto points = static_cast<std::size_t>(options.get_uint("points", 8));

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
    return {};
}

/// Exit 2: the inventory left a tag unidentified.
outcome run_network(const option_set& options, const context&)
{
    const auto tag_count = static_cast<std::size_t>(options.get_uint("tags", 20));
    const double max_range = options.get_double("max-range", 8.0);
    const auto payload = static_cast<std::size_t>(options.get_uint("payload", 256));
    const std::uint64_t seed = options.get_uint("seed", 1);
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
    return {.status = report.inventory.complete() ? 0 : 2};
}

/// Exit 2: a seed's inventory did not complete.
outcome run_inventory(const option_set& options, const context&)
{
    const auto tag_count = static_cast<std::size_t>(options.get_uint("tags", 50));
    const auto seeds = static_cast<std::size_t>(options.get_uint("seeds", 10));
    const double success = options.get_double("success", 0.98);
    if (tag_count == 0) throw std::invalid_argument("--tags must be >= 1");
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
    return {.status = incomplete == 0 ? 0 : 2};
}

/// Exit 2 when the supervised arm loses the goodput comparison, 3 when
/// outages occurred but no recovery completed.
outcome run_faults(const option_set& options, const context& ctx)
{
    const double fault_rate = options.get_double("fault-rate", 150.0);
    const double mean_duration_ms = options.get_double("mean-duration", 2.0);
    const auto frames = static_cast<std::size_t>(options.get_uint("frames", 300));
    const auto payload = static_cast<std::size_t>(options.get_uint("payload", 24));
    const double distance = options.get_double("distance", 4.0);
    const std::uint64_t seed = options.get_uint("seed", 11);
    const std::uint64_t fault_seed = options.get_uint("fault-seed", 42);
    const auto trials = static_cast<std::size_t>(options.get_uint("trials", 1));
    if (fault_rate < 0.0) throw std::invalid_argument("--fault-rate must be >= 0");
    if (mean_duration_ms <= 0.0) {
        throw std::invalid_argument("--mean-duration must be > 0");
    }
    if (frames == 0) throw std::invalid_argument("--frames must be >= 1");
    if (payload == 0) throw std::invalid_argument("--payload must be >= 1");
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

    // One (supervised, plain) pair of arms per trial. Trial t perturbs the
    // link with fault seed fault_seed + t (trial 0 reproduces the
    // single-trial output exactly), and each kind of arm folds its trials in
    // order, so the output is bit-identical for any --jobs value.
    std::vector<core::recovery_arm> arms;
    for (std::size_t trial = 0; trial < trials; ++trial) {
        std::optional<fault::fault_schedule> trial_faults;
        if (fault_rate > 0.0) trial_faults.emplace(sched_cfg, fault_seed + trial);
        arms.push_back({trial_faults, true});
        arms.push_back({std::move(trial_faults), false});
    }
    runtime::thread_pool pool(ctx.jobs);
    const auto reports =
        core::run_recovery_arms(cfg, arms, frames, payload, pool, ctx.metrics);

    ap::supervised_report sup = reports[0];
    ap::supervised_report base = reports[1];
    for (std::size_t t = 1; t < trials; ++t) {
        sup.merge(reports[2 * t]);
        base.merge(reports[2 * t + 1]);
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

    // Exit 3: the supervisor saw outages but never completed a recovery —
    // the resilience machinery itself failed, which is worse than merely
    // losing the goodput comparison (exit 2).
    int status = sup.goodput_bps >= base.goodput_bps ? 0 : 2;
    if (sup.recovery.outages > 0 && sup.recovery.recoveries == 0) status = 3;
    return {.status = status, .tasks = arms.size(), .jobs = pool.jobs()};
}

/// Exit 3 when any invariant fails.
outcome run_soak(const option_set& options, const context& ctx)
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

    std::printf("soak: %zu tags (%zu faulted), %zu rounds x %zu trials, "
                "seed %llu, fault seed %llu\n",
                cfg.tag_count, cfg.faulted_count, cfg.rounds, cfg.trials,
                static_cast<unsigned long long>(cfg.seed),
                static_cast<unsigned long long>(cfg.fault_seed));

    runtime::thread_pool pool(ctx.jobs);
    const net::soak_report report = net::run_soak(cfg, pool, ctx.metrics);

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
    return {.status = report.all_passed() ? 0 : 3, .document = report.to_json(),
            .tasks = 2 * cfg.trials, .jobs = pool.jobs()};
}

outcome run_scale(const option_set& options, const context& ctx)
{
    scale::scale_config cfg;
    cfg.topology.tag_count = static_cast<std::size_t>(options.get_uint("tags", 1000));
    cfg.topology.ap_count = static_cast<std::size_t>(options.get_uint("aps", 4));
    cfg.topology.layout = parse_option(options, "layout", "grid", scale::parse_layout);
    cfg.topology.floor_m = options.get_double("floor", cfg.topology.floor_m);
    cfg.frames = static_cast<std::size_t>(options.get_uint("frames", 50));
    cfg.payload_bytes = static_cast<std::size_t>(options.get_uint("payload", 16));
    cfg.faulted = static_cast<std::size_t>(
        options.get_uint("faulted", cfg.topology.tag_count / 10));
    cfg.seed = options.get_uint("seed", 1);
    cfg.fault_seed = options.get_uint("fault-seed", 42);
    cfg.trials = static_cast<std::size_t>(options.get_uint("trials", 1));
    cfg.scenario = core::fast_scenario();

    std::printf("scale: %zu tags, %zu APs (%s layout), %zu rounds x %zu trials, "
                "seed %llu, fault seed %llu (%zu tags faulted)\n",
                cfg.topology.tag_count, cfg.topology.ap_count,
                scale::layout_name(cfg.topology.layout), cfg.frames, cfg.trials,
                static_cast<unsigned long long>(cfg.seed),
                static_cast<unsigned long long>(cfg.fault_seed), cfg.faulted);

    const scale::scale_result result = scale::run_scale(cfg, ctx.jobs, ctx.metrics);

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
    return {.document = result.to_json(), .tasks = cfg.trials, .jobs = result.jobs,
            .events = result.events, .setup_s = result.setup_s};
}

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

outcome run_sweep(const option_set& options, const context& ctx)
{
    const double start_m = options.get_double("start", 1.0);
    const double stop_m = options.get_double("stop", 6.0);
    const auto points = static_cast<std::size_t>(options.get_uint("points", 6));
    const auto trials = static_cast<std::size_t>(options.get_uint("trials", 4));
    const auto frames = static_cast<std::size_t>(options.get_uint("frames", 6));
    const auto payload = static_cast<std::size_t>(options.get_uint("payload", 32));
    const std::uint64_t seed = options.get_uint("seed", 1);

    auto cfg = core::fast_scenario();
    apply_frame_options(options, cfg);
    if (points == 0) throw std::invalid_argument("--points must be >= 1");
    if (trials == 0) throw std::invalid_argument("--trials must be >= 1");
    if (frames == 0) throw std::invalid_argument("--frames must be >= 1");
    if (payload == 0) throw std::invalid_argument("--payload must be >= 1");
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
    sweep.jobs = ctx.jobs;
    sweep.base_seed = seed;
    sweep.trials_per_point = trials;
    sweep.progress = runtime::stderr_progress();
    const bool want_metrics = ctx.metrics != nullptr;
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
    for (std::size_t point = 0; point < points; ++point) {
        const auto& report = out.points[point].aggregate.report;
        if (want_metrics) ctx.metrics->merge(out.points[point].aggregate.metrics);
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
        // driver puts the wall-clock timer histograms in the run section.
        results.set_metrics(ctx.metrics->to_json(obs::metric_view::deterministic));
    }
    return {.document = results.to_json(), .tasks = out.trials, .jobs = out.jobs};
}

} // namespace

std::span<const command> commands()
{
    static const command table[] = {
        {"link", "end-to-end single-link simulation",
         {"preset", "distance", "angle", "scheme", "fec", "frames", "payload", "seed",
          "reflector", "k-factor"},
         run_link},
        {"budget", "analytic link budget sweep",
         {"start", "stop", "points", "tx-power", "elements"}, run_budget},
        {"network", "inventory + TDMA over a random population",
         {"tags", "max-range", "payload", "seed"}, run_network},
        {"inventory", "slotted-ALOHA statistics", {"tags", "seeds", "success"}, run_inventory},
        {"faults", "fault-injected link, supervisor on vs off",
         {"fault-rate", "mean-duration", "frames", "payload", "distance", "seed", "fault-seed",
          "trials", "jobs", "metrics", "trace"},
         run_faults},
        {"soak", "chaos soak: network supervisor vs multi-tag faults, invariant-checked",
         {"tags", "faulted", "rounds", "payload", "trials", "seed", "fault-seed", "min-range",
          "max-range", "jobs", "json", "metrics", "trace"},
         run_soak},
        {"scale", "PHY-abstracted discrete-event network simulation",
         {"tags", "aps", "layout", "floor", "frames", "payload", "faulted", "seed", "fault-seed",
          "trials", "jobs", "json", "metrics", "trace"},
         run_scale},
        {"sweep", "parallel BER/goodput vs distance Monte-Carlo sweep",
         {"start", "stop", "points", "trials", "frames", "payload", "scheme", "fec", "seed",
          "jobs", "json", "metrics", "trace"},
         run_sweep},
    };
    return table;
}

int dispatch(int argc, const char* const* argv)
{
    return run(argc, argv, commands(),
               {.program = "mmtag_sim", .noun = "command", .bad_input_status = 1,
                .no_argument_status = 1});
}

} // namespace mmtag::cli
