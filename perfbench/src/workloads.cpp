#include "workloads.hpp"

#include <array>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "des_mirror.hpp"
#include "link_mirror.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/core/multitag_simulator.hpp"
#include "mmtag/core/network.hpp"
#include "mmtag/net/soak_harness.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/runtime/json_io.hpp"
#include "mmtag/runtime/result_writer.hpp"
#include "mmtag/runtime/thread_pool.hpp"
#include "mmtag/runtime/trial_rng.hpp"
#include "mmtag/scale/des_engine.hpp"

namespace perfbench {

using namespace mmtag;
using runtime::json_value;

namespace {

constexpr std::size_t link_payload_bytes = 512;
/// Frames timed per link repetition (~0.4 s at the seed's ~40 frames/s).
constexpr std::size_t link_batch_frames = 16;
/// Workers of the soak pool and of the phy_table calibration.
constexpr std::size_t pool_workers = 2;
/// Cold set-ups per des_100k run; setup_s is their median.
constexpr std::size_t des_setups = 3;

// ---------------------------------------------------------------- inputs

core::system_config link_config(std::uint64_t seed)
{
    core::system_config cfg = core::fast_scenario();
    cfg.distance_m = 3.0;
    cfg.modulator.frame.scheme = phy::modulation::qpsk;
    cfg.modulator.frame.fec = phy::fec_mode::conv_half;
    cfg.receiver.frame = cfg.modulator.frame;
    cfg.seed = seed;
    return cfg;
}

/// The payload core::link_simulator::run_trials draws for frame `f` of a
/// call made after `frames_before` frames on the same simulator.
std::vector<std::uint8_t> link_payload(const core::system_config& cfg,
                                       std::size_t frames_before, std::size_t f)
{
    return phy::random_bytes(link_payload_bytes,
                             cfg.seed * 1'000'003 + frames_before + 2 * f);
}

net::soak_config soak_config_for(std::uint64_t seed)
{
    net::soak_config cfg; // 6 tags (2 faulted), 36 rounds, 16 B, 2 trials
    cfg.seed = seed;
    return cfg;
}

scale::scale_config des_config(std::uint64_t seed)
{
    scale::scale_config cfg;
    cfg.topology.layout = scale::layout_kind::warehouse_grid;
    cfg.topology.tag_count = 100'000;
    cfg.topology.ap_count = 16;
    cfg.topology.seed = runtime::substream(seed, 1);
    cfg.frames = 50;
    cfg.payload_bytes = 16;
    cfg.faulted = cfg.topology.tag_count / 10;
    cfg.seed = seed;
    cfg.fault_seed = runtime::substream(seed, 2);
    cfg.trials = 1;
    return cfg;
}

/// The calibration run_scale would request for `cfg`.
scale::phy_table_config table_config(const scale::scale_config& cfg)
{
    scale::phy_table_config table = cfg.phy;
    table.scenario = cfg.scenario;
    table.payload_bytes = cfg.payload_bytes;
    return table;
}

// ---------------------------------------------------------------- helpers

/// Runs `step` repeatedly until `seconds` of wall time have passed (at
/// least once).
template <typename Step>
void repeat_for(double seconds, Step&& step)
{
    const auto start = clock_type::now();
    do {
        step();
    } while (seconds_since(start) < seconds);
}

/// Keeps the first repetition's output and flags any later one that differs.
void record_digest(workload_result& out, std::string digest, std::string summary)
{
    if (out.digest.empty()) {
        out.digest = std::move(digest);
        out.digest_summary = std::move(summary);
    } else if (digest != out.digest) {
        out.fail("the same input produced different outputs across repetitions");
    }
}

/// Cold phy_table calibration into a fresh, empty cache directory that is
/// removed again afterwards.
scale::phy_table cold_table(const scale::phy_table_config& cfg, const std::string& scratch_dir)
{
    namespace fs = std::filesystem;
    static unsigned calibrations = 0;
    const fs::path dir = fs::path(scratch_dir) / ("phy_cache_" + std::to_string(++calibrations));
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto cache = scale::phy_table::load_or_generate(cfg, pool_workers, dir.string());
    fs::remove_all(dir);
    if (cache.cache_hit) throw std::runtime_error("phy_table: cache hit in an empty directory");
    return std::move(cache.table);
}

/// The fingerprint of the phy_table des_100k calibrates (a pure function of
/// the configuration, so every workload can report it without calibrating).
std::string table_fingerprint(std::uint64_t seed)
{
    return scale::phy_table::fingerprint_of(table_config(des_config(seed)));
}

double safe_ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

double median_or_zero(const std::vector<double>& values)
{
    return values.empty() ? 0.0 : median(values);
}

// ---------------------------------------------------------------- link

json_value link_summary(const core::system_config& cfg, const core::link_report& report)
{
    auto doc = runtime::schema_object("perfbench.link_long/1");
    doc.set("seed", json_value::unsigned_integer(cfg.seed));
    doc.set("payload_bytes", json_value::unsigned_integer(link_payload_bytes));
    doc.set("report", runtime::result_writer::metrics(report));
    doc.set("snr_sum_db", json_value::number(report.snr_sum_db));
    doc.set("evm_sum_db", json_value::number(report.evm_sum_db));
    doc.set("airtime_s", json_value::number(report.airtime_s));
    doc.set("delivered_bits", json_value::unsigned_integer(report.delivered_bits));
    doc.set("tag_energy_j", json_value::number(report.tag_energy_j));
    return doc;
}

// ---------------------------------------------------------------- soak

/// One soak-round-shaped capture: every tag bursts once, back to back, on a
/// fresh multitag_simulator seeded like trial 0 (the capture the faulted
/// arm uses to measure its round airtime). Returns the seconds spent in
/// multitag_simulator::run.
double soak_round_capture(const net::soak_config& cfg)
{
    const auto population = core::uniform_population(
        cfg.tag_count, cfg.min_range_m, cfg.max_range_m, runtime::substream(cfg.seed, 17));
    auto scenario = cfg.scenario;
    scenario.seed = runtime::trial_seed(cfg.seed, 0, 0);
    core::multitag_simulator sim(scenario, population);
    const double slot_s = sim.burst_duration_s(cfg.payload_bytes) * 1.05;
    std::vector<core::tag_burst> bursts;
    for (std::size_t i = 0; i < cfg.tag_count; ++i) {
        bursts.push_back({i, std::vector<std::uint8_t>(cfg.payload_bytes, 0),
                          static_cast<double>(i) * slot_s, std::nullopt});
    }
    const auto start = clock_type::now();
    (void)sim.run(bursts);
    return seconds_since(start);
}

/// What one run_soak call simulated, which its report does not carry.
struct soak_work {
    std::uint64_t rounds = 0;
    std::uint64_t bursts = 0; ///< data + probe bursts, both arms
    std::vector<std::uint64_t> delivered;
    std::vector<std::uint64_t> reference;
};

soak_work count_soak_work(const std::vector<net::soak_trial_result>& arms, std::size_t trials,
                          std::size_t tags)
{
    soak_work work;
    work.delivered.assign(tags, 0);
    work.reference.assign(tags, 0);
    for (std::size_t i = 0; i < arms.size(); ++i) {
        for (const auto& rec : arms[i].trace.rounds) {
            ++work.rounds;
            for (std::size_t tag = 0; tag < tags; ++tag) {
                work.bursts += rec.scheduled[tag] + rec.probed[tag];
            }
        }
        auto& totals = i < trials ? work.delivered : work.reference;
        for (std::size_t tag = 0; tag < tags; ++tag) totals[tag] += arms[i].delivered_per_tag[tag];
    }
    return work;
}

/// Both arms of every trial in run_soak's task order (faulted arms first).
std::vector<net::soak_trial_result> replay_soak_arms(const net::soak_config& cfg,
                                                     runtime::thread_pool& pool)
{
    return runtime::ordered_parallel_results(pool, 2 * cfg.trials, [&](std::size_t i) {
        const bool faulted = i < cfg.trials;
        return net::run_soak_trial(cfg, faulted ? i : i - cfg.trials, faulted, nullptr);
    });
}

std::string first_failed_invariant(const net::soak_report& report)
{
    for (const auto& inv : report.invariants) {
        if (!inv.passed) return "soak invariant " + inv.name + " failed: " + inv.detail;
    }
    return "soak report has no invariants";
}

// ---------------------------------------------------------------- DES

std::string conservation_error(const scale::scale_trial_result& trial)
{
    if (trial.events != trial.rounds + trial.data_slots + trial.probe_slots) {
        return "des: events != rounds + data_slots + probe_slots";
    }
    std::uint64_t per_tag = 0;
    for (const std::uint64_t d : trial.delivered_per_tag) per_tag += d;
    if (per_tag != trial.delivered) return "des: sum of delivered_per_tag != delivered";
    if (trial.delivered > trial.data_slots) return "des: delivered > data_slots";
    return {};
}

/// Folds one trial the way run_scale does, so the digest is run_scale's
/// own result JSON.
scale::scale_result fold_trial(const scale::scale_config& cfg,
                               const scale::scale_trial_result& trial)
{
    scale::scale_result r;
    r.config = cfg;
    r.attempts_per_tag = trial.attempts_per_tag;
    r.delivered_per_tag = trial.delivered_per_tag;
    r.data_slots = trial.data_slots;
    r.probe_slots = trial.probe_slots;
    r.delivered = trial.delivered;
    r.brownout_losses = trial.brownout_losses;
    r.rounds = trial.rounds;
    r.events = trial.events;
    r.sim_time_s = trial.sim_time_s;
    r.transitions = trial.transitions;
    r.readmissions = trial.readmissions;
    std::uint64_t latency_sum = 0;
    for (const std::size_t latency : trial.readmit_latencies_rounds) {
        ++r.readmit_latency_count;
        latency_sum += latency;
        r.readmit_latency_max_rounds =
            std::max(r.readmit_latency_max_rounds, static_cast<std::uint64_t>(latency));
    }
    r.readmit_latency_mean_rounds =
        safe_ratio(static_cast<double>(latency_sum), static_cast<double>(r.readmit_latency_count));
    r.event_log_hash = runtime::mix64(0xcbf29ce484222325ULL ^ trial.event_log_hash);
    return r;
}

/// The scale JSON's scalar fields (everything but the 100k-entry per-tag
/// list, which the printed sha256 of the full document covers).
json_value des_summary(const scale::scale_result& r)
{
    const json_value full = r.to_json();
    auto doc = runtime::schema_object("perfbench.des_100k/1");
    for (const char* key : {"tags", "aps", "layout", "frames", "trials", "seed", "fault_seed",
                            "faulted", "rounds", "events", "data_slots", "probe_slots",
                            "delivered", "brownout_losses", "sim_time_s", "goodput_bps",
                            "fairness_index", "transitions", "readmissions",
                            "readmit_latency_count", "readmit_latency_mean_rounds",
                            "readmit_latency_max_rounds", "event_log_hash"}) {
        if (const json_value* value = full.find(key)) doc.set(key, *value);
    }
    return doc;
}

} // namespace

// ================================================================ untraced

workload_result run_link_long(const run_options& options)
{
    workload_result out;
    out.phy_table_fingerprint = table_fingerprint(options.seed);
    const auto cfg = link_config(options.seed);
    std::vector<double> setup_s, frames_per_s, events_per_s;
    repeat_for(options.seconds, [&] {
        // Set-up: a fresh simulator plus one warm-up frame.
        const auto t0 = clock_type::now();
        core::link_simulator sim(cfg);
        (void)sim.run_trials(1, link_payload_bytes);
        setup_s.push_back(seconds_since(t0));

        const double cpu_start = process_cpu_seconds();
        const core::link_report report = sim.run_trials(link_batch_frames, link_payload_bytes);
        const double elapsed = process_cpu_seconds() - cpu_start;
        frames_per_s.push_back(static_cast<double>(report.frames_delivered) / elapsed);
        events_per_s.push_back(static_cast<double>(report.frames) / elapsed);
        out.attempted += report.frames;
        out.failed += report.frames - report.frames_delivered;
        if (report.bit_errors != 0) out.fail("link_long: delivered payloads carry bit errors");
        const std::string digest = link_summary(cfg, report).dump();
        record_digest(out, digest, digest);
    });
    if (out.failed > 0) out.fail("link_long: frames were not delivered at 3 m");
    out.add("frames_per_s", median(frames_per_s), "1/s");
    out.add("events_per_s", median(events_per_s), "1/s");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
}

workload_result run_soak_multitag(const run_options& options)
{
    workload_result out;
    out.phy_table_fingerprint = table_fingerprint(options.seed);
    const auto cfg = soak_config_for(options.seed);
    const std::size_t arms = 2 * cfg.trials;
    std::vector<double> setup_s, call_cpu_s;
    std::unique_ptr<runtime::thread_pool> pool;
    std::optional<net::soak_report> last;
    repeat_for(options.seconds, [&] {
        pool.reset();
        // Set-up: the worker pool plus one warm-up soak-round capture.
        const auto t0 = clock_type::now();
        pool = std::make_unique<runtime::thread_pool>(pool_workers);
        (void)soak_round_capture(cfg);
        setup_s.push_back(seconds_since(t0));

        out.attempted += arms;
        try {
            const double cpu_start = process_cpu_seconds();
            net::soak_report report = net::run_soak(cfg, *pool);
            call_cpu_s.push_back(process_cpu_seconds() - cpu_start);
            if (!report.all_passed()) {
                out.failed += arms;
                out.fail(first_failed_invariant(report));
            }
            const std::string digest = report.to_json().dump();
            record_digest(out, digest, digest);
            last = std::move(report);
        } catch (const std::exception& error) {
            out.failed += arms;
            out.fail(std::string("soak_multitag: ") + error.what());
        }
    });

    // The report carries no burst or round counts: replay each arm once,
    // untimed, and check it agrees with the timed run_soak calls.
    soak_work work;
    if (last) {
        work = count_soak_work(replay_soak_arms(cfg, *pool), cfg.trials, cfg.tag_count);
        if (work.delivered != last->delivered_per_tag ||
            work.reference != last->reference_per_tag) {
            out.fail("soak_multitag: run_soak and run_soak_trial disagree on deliveries");
        }
    }
    std::vector<double> frames_per_s, events_per_s;
    for (const double s : call_cpu_s) {
        frames_per_s.push_back(static_cast<double>(work.bursts) / s);
        events_per_s.push_back(static_cast<double>(work.rounds + work.bursts) / s);
    }
    out.add("frames_per_s", median_or_zero(frames_per_s), "1/s");
    out.add("events_per_s", median_or_zero(events_per_s), "1/s");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
}

workload_result run_des_100k(const run_options& options)
{
    workload_result out;
    const auto cfg = des_config(options.seed);
    const auto table_cfg = table_config(cfg);
    std::vector<double> setup_s;
    std::optional<scale::deployment> topo;
    std::optional<scale::phy_table> table;
    for (std::size_t i = 0; i < des_setups; ++i) {
        topo.reset();
        table.reset();
        const auto t0 = clock_type::now();
        topo.emplace(scale::make_deployment(cfg.topology, cfg.scenario));
        table.emplace(cold_table(table_cfg, options.scratch_dir));
        setup_s.push_back(seconds_since(t0));
    }
    out.phy_table_fingerprint = table->fingerprint();

    std::vector<double> events_per_s, frames_per_s;
    repeat_for(options.seconds, [&] {
        ++out.attempted;
        try {
            const double cpu_start = process_cpu_seconds();
            const scale::scale_trial_result trial =
                scale::run_scale_trial(cfg, *topo, *table, 0, nullptr);
            const double elapsed = process_cpu_seconds() - cpu_start;
            events_per_s.push_back(static_cast<double>(trial.events) / elapsed);
            frames_per_s.push_back(
                static_cast<double>(trial.data_slots + trial.probe_slots) / elapsed);
            if (const std::string broken = conservation_error(trial); !broken.empty()) {
                ++out.failed;
                out.fail(broken);
            }
            const scale::scale_result folded = fold_trial(cfg, trial);
            record_digest(out, folded.to_json().dump(), des_summary(folded).dump());
        } catch (const std::exception& error) {
            ++out.failed;
            out.fail(std::string("des_100k: ") + error.what());
        }
    });
    out.add("frames_per_s", median_or_zero(frames_per_s), "1/s");
    out.add("events_per_s", median_or_zero(events_per_s), "1/s");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
}

// ================================================================ traced

namespace {

void trace_link(workload_result& out, const run_options& options)
{
    const auto cfg = link_config(options.seed);

    // Fidelity gate: the link_long shape plus four other MCS/payload shapes.
    struct shape {
        phy::modulation scheme;
        phy::fec_mode fec;
        std::size_t payload_bytes;
    };
    constexpr std::size_t gate_frames = 3;
    for (const shape& s : {shape{phy::modulation::qpsk, phy::fec_mode::conv_half, 512},
                           shape{phy::modulation::bpsk, phy::fec_mode::uncoded, 32},
                           shape{phy::modulation::bpsk, phy::fec_mode::conv_half, 64},
                           shape{phy::modulation::psk8, phy::fec_mode::conv_two_thirds, 128},
                           shape{phy::modulation::psk16, phy::fec_mode::conv_three_quarters,
                                 256}}) {
        auto gate_cfg = cfg;
        gate_cfg.modulator.frame.scheme = s.scheme;
        gate_cfg.modulator.frame.fec = s.fec;
        gate_cfg.receiver.frame = gate_cfg.modulator.frame;
        out.attempted += gate_frames;
        const std::string diverged = check_link_fidelity(gate_cfg, gate_frames, s.payload_bytes);
        if (!diverged.empty()) {
            ++out.failed;
            out.fail("link mirror fidelity (" + phy::modulation_name(s.scheme) + " " +
                     phy::fec_mode_name(s.fec) + ", " + std::to_string(s.payload_bytes) +
                     " B): " + diverged);
        }
    }

    // Untraced reference: link_long's warm-up frame plus a timed batch.
    constexpr std::size_t frames = 24;
    core::link_simulator sim(cfg);
    (void)sim.run_trials(1, link_payload_bytes);
    auto start = clock_type::now();
    (void)sim.run_trials(frames, link_payload_bytes);
    const double untraced_s = seconds_since(start);

    // Traced: the same frames through the mirror.
    link_mirror mirror(cfg);
    (void)mirror.run_frame(link_payload(cfg, 0, 0));
    mirror.reset_totals();
    start = clock_type::now();
    for (std::size_t f = 0; f < frames; ++f) {
        const auto payload = link_payload(cfg, 1, f);
        const mirror_frame frame = mirror.run_frame(payload);
        ++out.attempted;
        if (!frame.delivered || frame.rx.payload != payload) ++out.failed;
    }
    const double traced_s = seconds_since(start);

    const auto n = static_cast<double>(mirror.frames());
    for (std::size_t i = 0; i < link_stage_names.size(); ++i) {
        const auto& stage = mirror.stages()[i];
        out.add(std::string(link_stage_names[i]) + "_us", stage.seconds / n * 1e6, "us");
    }
    for (std::size_t i = 0; i < link_stage_names.size(); ++i) {
        out.add(std::string(link_stage_names[i]) + ".allocs_per_frame",
                static_cast<double>(mirror.stages()[i].allocations) / n, "count");
    }
    constexpr std::size_t viterbi = 12;
    static_assert(std::string_view(link_stage_names[viterbi]) == "fec.viterbi");
    out.add("fec.viterbi_ns_per_bit",
            safe_ratio(mirror.stages()[viterbi].seconds * 1e9,
                       static_cast<double>(mirror.viterbi_bits())),
            "ns");
    out.add("link.samples_per_frame", static_cast<double>(mirror.samples()) / n, "count");
    out.add("link_long.trace_overhead_ms", (traced_s - untraced_s) / n * 1e3, "ms");
}

void trace_soak(workload_result& out, const run_options& options)
{
    const auto cfg = soak_config_for(options.seed);
    const std::size_t arms = 2 * cfg.trials;

    // Untraced reference on one executor, like the traced replay below.
    runtime::thread_pool pool(1);
    auto start = clock_type::now();
    (void)net::run_soak(cfg, pool);
    const double untraced_s = seconds_since(start);

    // Traced: each arm, then each invariant checker, timed on its own.
    std::vector<double> faulted_s, reference_s;
    std::array<double, 5> checker_s{};
    std::array<std::size_t, 5> checker_calls{};
    const auto check = [&](std::size_t index, const net::invariant_result& verdict) {
        ++checker_calls[index];
        if (!verdict.passed) {
            ++out.failed;
            out.fail("soak invariant " + verdict.name + " failed: " + verdict.detail);
        }
    };
    const auto timed = [&](std::size_t index, auto&& checker) {
        const auto t = clock_type::now();
        const net::invariant_result verdict = checker();
        checker_s[index] += seconds_since(t);
        check(index, verdict);
    };
    start = clock_type::now();
    for (std::size_t trial = 0; trial < cfg.trials; ++trial) {
        std::array<net::soak_trial_result, 2> arm;
        for (const bool faulted : {true, false}) {
            const auto t = clock_type::now();
            arm[faulted ? 0 : 1] = net::run_soak_trial(cfg, trial, faulted, nullptr);
            (faulted ? faulted_s : reference_s).push_back(seconds_since(t));
            out.attempted += 1;
        }
        for (const auto& a : arm) {
            timed(0, [&] { return net::check_transition_legality(a.trace); });
            timed(1, [&] { return net::check_no_starvation(a.trace, cfg.starvation_window_rounds); });
            timed(2, [&] { return net::check_frame_conservation(a.trace, a.delivered_per_tag); });
            timed(3, [&] {
                return net::check_bounded_recovery(a.trace, cfg.session, cfg.readmit_grace_factor);
            });
        }
        timed(4, [&] {
            return net::check_graceful_degradation(arm[0].delivered_per_tag,
                                                   arm[1].delivered_per_tag, cfg.faulted_count,
                                                   cfg.healthy_share_min);
        });
    }
    const double traced_s = seconds_since(start);

    std::vector<double> capture_s;
    for (int i = 0; i < 5; ++i) capture_s.push_back(soak_round_capture(cfg));

    out.add("net.soak_faulted_arm_s", median(faulted_s), "s");
    out.add("net.soak_reference_arm_s", median(reference_s), "s");
    constexpr std::array<const char*, 5> checker_names = {
        "transition_legality", "no_starvation", "frame_conservation", "bounded_recovery",
        "graceful_degradation"};
    for (std::size_t i = 0; i < checker_names.size(); ++i) {
        out.add(std::string("net.check.") + checker_names[i] + "_us",
                safe_ratio(checker_s[i] * 1e6, static_cast<double>(checker_calls[i])), "us");
    }
    out.add("core.multitag_capture_ms", median(capture_s) * 1e3, "ms");
    out.add("soak_multitag.trace_overhead_ms",
            (traced_s - untraced_s) / static_cast<double>(arms) * 1e3, "ms");
}

/// Names the DES layer a mirror/engine mismatch points at.
std::string des_divergence(const scale::scale_trial_result& expected,
                           const des_mirror_result& got)
{
    if (got.rounds != expected.rounds || got.events != expected.events) {
        return "event queue / net.plan_round (round or event count differs)";
    }
    if (got.data_slots != expected.data_slots || got.probe_slots != expected.probe_slots) {
        return "mac.interleave / net.plan_round (slot counts differ)";
    }
    if (got.delivered != expected.delivered) {
        return "fault lookup / phy draw / net.record (deliveries differ)";
    }
    if (got.event_log_hash != expected.event_log_hash) {
        return "event log (event_log_hash differs)";
    }
    return {};
}

void trace_des(workload_result& out, const run_options& options)
{
    const auto cfg = des_config(options.seed);
    auto start = clock_type::now();
    const scale::deployment topo = scale::make_deployment(cfg.topology, cfg.scenario);
    const double topology_s = seconds_since(start);
    start = clock_type::now();
    const scale::phy_table table = cold_table(table_config(cfg), options.scratch_dir);
    const double phy_table_s = seconds_since(start);
    out.phy_table_fingerprint = table.fingerprint();

    start = clock_type::now();
    const scale::scale_trial_result expected = scale::run_scale_trial(cfg, topo, table, 0, nullptr);
    const double untraced_s = seconds_since(start);
    start = clock_type::now();
    const des_mirror_result got = mirror_scale_trial(cfg, topo, table, 0);
    const double traced_s = seconds_since(start);

    ++out.attempted;
    if (const std::string where = des_divergence(expected, got); !where.empty()) {
        ++out.failed;
        out.fail("des mirror fidelity: diverged in " + where);
    }

    const auto& l = got.layers;
    const auto events = static_cast<double>(got.events);
    const auto slots = static_cast<double>(got.data_slots + got.probe_slots);
    const auto rounds = static_cast<double>(got.rounds);
    out.add("scale.topology_s", topology_s, "s");
    out.add("scale.phy_table_s", phy_table_s, "s");
    out.add("scale.queue_ns_per_event", safe_ratio(l.queue_s * 1e9, events), "ns");
    out.add("fault.lookup_ns_per_slot", safe_ratio(l.fault_s * 1e9, slots), "ns");
    out.add("net.plan_round_us", safe_ratio(l.plan_s * 1e6, rounds), "us");
    out.add("mac.interleave_us_per_round", safe_ratio(l.interleave_s * 1e6, rounds), "us");
    out.add("net.record_ns_per_slot", safe_ratio(l.record_s * 1e9, slots), "ns");
    out.add("scale.phy_draw_ns_per_slot", safe_ratio(l.phy_draw_s * 1e9, slots), "ns");
    out.add("scale.event_log_ns_per_event", safe_ratio(l.event_log_s * 1e9, events), "ns");
    out.add("scale.allocs_per_event", safe_ratio(static_cast<double>(l.allocations), events),
            "count");
    out.add("scale.peak_queue_depth", static_cast<double>(l.peak_queue_depth), "count");
    out.add("net.transitions", static_cast<double>(l.transitions), "count");
    out.add("des_100k.trace_overhead_ms", (traced_s - untraced_s) * 1e3, "ms");
}

} // namespace

workload_result run_traced(const run_options& options)
{
    workload_result out;
    trace_link(out, options);
    trace_soak(out, options);
    trace_des(out, options);
    return out;
}

} // namespace perfbench
