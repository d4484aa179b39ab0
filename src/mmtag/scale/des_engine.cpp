#include "mmtag/scale/des_engine.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/mac/tdma.hpp"
#include "mmtag/net/network_supervisor.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/runtime/json_io.hpp"
#include "mmtag/runtime/thread_pool.hpp"
#include "mmtag/runtime/trial_rng.hpp"

namespace mmtag::scale {

const char* event_kind_name(event_kind kind)
{
    switch (kind) {
    case event_kind::round_begin: return "round";
    case event_kind::data_slot: return "data";
    case event_kind::probe_slot: return "probe";
    }
    return "?";
}

bool event_queue::head_before(std::uint32_t a, std::uint32_t b) const
{
    const des_event& x = log_[runs_[a].head];
    const des_event& y = log_[runs_[b].head];
    if (x.time_s != y.time_s) return x.time_s < y.time_s;
    return x.seq < y.seq;
}

void event_queue::sift_up(std::size_t pos)
{
    const std::uint32_t r = heap_[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 2;
        if (!head_before(r, heap_[parent])) break;
        heap_[pos] = heap_[parent];
        pos = parent;
    }
    heap_[pos] = r;
}

void event_queue::sift_down(std::size_t pos)
{
    const std::uint32_t r = heap_[pos];
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * pos + 1;
        if (child >= n) break;
        if (child + 1 < n && head_before(heap_[child + 1], heap_[child])) ++child;
        if (!head_before(heap_[child], r)) break;
        heap_[pos] = heap_[child];
        pos = child;
    }
    heap_[pos] = r;
}

std::uint64_t event_queue::push(des_event event)
{
    event.seq = next_seq_++;
    if (open_ != no_run && event.time_s >= log_.back().time_s) {
        log_.push_back(event);
        ++runs_[open_].end;
    } else {
        std::uint32_t r = 0;
        if (free_runs_.empty()) {
            if (runs_.size() >= no_run) {
                throw std::length_error("event_queue: too many pending runs");
            }
            r = static_cast<std::uint32_t>(runs_.size());
            runs_.emplace_back();
        } else {
            r = free_runs_.back();
            free_runs_.pop_back();
        }
        runs_[r] = {log_.size(), log_.size() + 1};
        log_.push_back(event);
        heap_.push_back(r);
        sift_up(heap_.size() - 1);
        open_ = r;
    }
    ++size_;
    return event.seq;
}

des_event event_queue::pop()
{
    if (size_ == 0) throw std::logic_error("event_queue: pop on empty queue");
    const std::uint32_t r = heap_.front();
    run& top = runs_[r];
    const des_event event = log_[top.head++];
    if (top.head == top.end) {
        heap_.front() = heap_.back();
        heap_.pop_back();
        free_runs_.push_back(r);
        if (open_ == r) open_ = no_run;
    }
    if (!heap_.empty()) sift_down(0);
    --size_;
    // Amortised O(1): a compaction copies size_ entries and runs only after
    // more than size_ pops since the last one.
    constexpr std::size_t compact_slack = 4096;
    if (++popped_in_log_ > size_ + compact_slack) compact();
    return event;
}

void event_queue::compact()
{
    std::vector<std::uint32_t> order(heap_);
    std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
        return runs_[a].head < runs_[b].head;
    });
    std::size_t write = 0;
    for (const std::uint32_t r : order) {
        run& live = runs_[r];
        std::copy(log_.begin() + static_cast<std::ptrdiff_t>(live.head),
                  log_.begin() + static_cast<std::ptrdiff_t>(live.end),
                  log_.begin() + static_cast<std::ptrdiff_t>(write));
        live.end = write + (live.end - live.head);
        live.head = write;
        write = live.end;
    }
    log_.resize(write);
    popped_in_log_ = 0;
}

std::size_t format_event_line(const des_event& event, int outcome,
                              char (&out)[event_line_capacity])
{
    // The capacity fits every finite time, so no conversion can run short.
    char* const end = out + event_line_capacity;
    char* p = std::to_chars(out, end, event.seq).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, event.time_s, std::chars_format::fixed, 9).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, event.ap).ptr;
    *p++ = ' ';
    for (const char* name = event_kind_name(event.kind); *name != '\0'; ++name) {
        *p++ = *name;
    }
    *p++ = ' ';
    p = std::to_chars(p, end, event.tag).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, event.mcs).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, outcome).ptr;
    *p++ = '\n';
    return static_cast<std::size_t>(p - out);
}

namespace {

constexpr std::size_t probe_payload_bytes = 4;
constexpr double interferer_floor_db = -300.0;

std::uint64_t fnv1a64_line(std::uint64_t hash, const char* text, std::size_t length)
{
    for (std::size_t i = 0; i < length; ++i) {
        hash ^= static_cast<unsigned char>(text[i]);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/// Airtime of one TDMA slot at a given rate: query + turnaround + the full
/// frame (preamble, BPSK header, payload at the slot's MCS) + guard.
double slot_airtime_s(const phy::mcs& option, std::size_t payload_bytes,
                      double symbol_rate_hz, const mac::tdma_config& mac)
{
    phy::frame_config frame;
    frame.scheme = option.scheme;
    frame.fec = option.fec;
    const std::size_t symbols = frame.preamble.total_symbols() +
                                phy::header_symbol_count +
                                phy::payload_symbol_count(payload_bytes, frame);
    return mac.query_time_s + mac.turnaround_s +
           static_cast<double>(symbols) / symbol_rate_hz + mac.guard_time_s;
}

/// Per-tag state of the slot path, kept together so a slot touches one
/// cache line of it instead of one per array.
struct slot_tag_state {
    double sinr_lin = 0.0; ///< static topology SINR, linear
    /// to_db(sinr_lin): an unimpaired slot's effective SINR is
    /// to_db(s_lin * 1 / 1), so it is computed once per tag with the same bits.
    double clean_sinr_db = 0.0;
    std::uint64_t attempts = 0;
    std::uint64_t delivered = 0;
};

/// Uniform [0, 1) draw keyed by the event's global sequence number.
double event_uniform(std::uint64_t draw_seed, std::uint64_t seq)
{
    return static_cast<double>(runtime::substream(draw_seed, seq) >> 11) * 0x1.0p-53;
}

} // namespace

scale_trial_result run_scale_trial(const scale_config& cfg, const deployment& topo,
                                   const phy_table& table, std::size_t trial,
                                   obs::metrics_registry* metrics)
{
    if (cfg.frames == 0) throw std::invalid_argument("run_scale_trial: frames must be >= 1");
    const std::size_t n = topo.tags.size();
    const std::uint64_t tseed = runtime::trial_seed(cfg.seed, 0, trial);
    const std::uint64_t draw_seed = runtime::substream(tseed, 0);
    const std::uint64_t fault_seed = runtime::trial_seed(cfg.fault_seed, 0, trial);

    // Per-tag static decisions and per-MCS slot airtimes, fixed for the run.
    const auto& ladder = ap::rate_table();
    const mac::tdma_config mac{};
    std::vector<double> mcs_slot_s(ladder.size());
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        mcs_slot_s[i] =
            slot_airtime_s(ladder[i], cfg.payload_bytes, cfg.scenario.symbol_rate_hz, mac);
    }
    const double probe_slot_s =
        slot_airtime_s(ladder.front(), probe_payload_bytes, cfg.scenario.symbol_rate_hz,
                       mac);
    std::vector<std::uint16_t> tag_mcs(n);
    std::vector<slot_tag_state> tag_state(n);
    for (std::size_t t = 0; t < n; ++t) {
        tag_mcs[t] =
            static_cast<std::uint16_t>(ap::rate_index(topo.tags[t].sinr_db, cfg.margin_db));
        tag_state[t].sinr_lin = from_db(topo.tags[t].sinr_db);
        tag_state[t].clean_sinr_db = to_db(tag_state[t].sinr_lin);
    }

    // The simulated duration spans three orders of magnitude as the tag
    // count sweeps 100 -> 10k, so absolute fault windows from the config
    // defaults (tuned for a 100 ms soak) would cover either the whole run or
    // none of it. Rescale the horizon and the shared-interferer window to
    // the nominal schedule length (all tags active at their static MCS),
    // preserving the defaults' fractions: interferer on over [10%, 40%] of
    // the run, fault onsets within the first `active_fraction`, and a quiet
    // tail where quarantined tags re-admit. Storm/brownout/background
    // fields are per-second rates or short transients and stay absolute.
    double nominal_round_s = 0.0;
    for (std::size_t a = 0; a < topo.aps.size(); ++a) {
        double round_s = 0.0;
        for (const std::size_t t : topo.cells[a]) round_s += mcs_slot_s[tag_mcs[t]];
        nominal_round_s = std::max(nominal_round_s, round_s);
    }
    const double nominal_duration_s =
        std::max(1e-6, nominal_round_s * static_cast<double>(cfg.frames));
    fault::multi_tag_config faults = cfg.faults;
    faults.horizon_s = nominal_duration_s;
    faults.interferer_start_s = 0.1 * nominal_duration_s;
    faults.interferer_duration_s = 0.3 * nominal_duration_s;

    const std::size_t faulted = std::min(cfg.faulted, n);
    fault::multi_tag_plan plan(faults, n, faulted, fault_seed);
    const fault::fault_injector shared_injector(plan.shared());
    // Only tags [0, faulted) carry a timeline; the plan leaves the rest
    // empty, so they see no impairment and get no injector.
    std::vector<fault::fault_injector> tag_injectors;
    tag_injectors.reserve(faulted);
    {
        std::vector<fault::fault_schedule> schedules = plan.take_per_tag();
        for (std::size_t t = 0; t < faulted; ++t) {
            tag_injectors.emplace_back(std::move(schedules[t]));
        }
    }

    // One unmodified network_supervisor per non-empty cell.
    std::vector<std::unique_ptr<net::network_supervisor>> supervisors(topo.aps.size());
    for (std::size_t a = 0; a < topo.aps.size(); ++a) {
        if (topo.cells[a].empty()) continue;
        net::supervisor_config sup_cfg;
        sup_cfg.session = cfg.session;
        sup_cfg.slot_budget = cfg.slot_budget;
        sup_cfg.metrics = metrics;
        std::vector<std::uint32_t> ids;
        ids.reserve(topo.cells[a].size());
        for (const std::size_t t : topo.cells[a]) {
            ids.push_back(topo.tags[t].id);
        }
        supervisors[a] = std::make_unique<net::network_supervisor>(sup_cfg, ids);
    }

    scale_trial_result result;
    result.event_log_hash = 0xcbf29ce484222325ULL;

    obs::histogram* sinr_hist =
        metrics != nullptr
            ? &metrics->get_histogram("scale/slot_sinr_db", obs::snr_bounds_db())
            : nullptr;

    // A robust-flag scratch table stamped per (ap, round) so membership in
    // the current plan's robust list is O(1) per slot.
    std::vector<std::uint64_t> robust_stamp(n, 0);
    std::uint64_t stamp = 0;
    std::vector<std::size_t> rounds_done(topo.aps.size(), 0);
    std::vector<double> cell_end_s(topo.aps.size(), 0.0);

    event_queue queue;
    for (std::size_t a = 0; a < topo.aps.size(); ++a) {
        if (supervisors[a] == nullptr) continue;
        des_event begin;
        begin.kind = event_kind::round_begin;
        begin.ap = static_cast<std::uint32_t>(a);
        begin.time_s = 0.0;
        queue.push(begin);
    }

    char line[event_line_capacity];
    while (!queue.empty()) {
        const des_event ev = queue.pop();
        int outcome = -1;

        if (ev.kind == event_kind::round_begin) {
            auto& sup = *supervisors[ev.ap];
            const net::round_plan round = sup.plan_round();
            ++stamp;
            for (const std::uint32_t id : round.robust) robust_stamp[id] = stamp;

            double cursor = ev.time_s;
            for (const std::uint32_t id : round.probes) {
                des_event slot;
                slot.kind = event_kind::probe_slot;
                slot.ap = ev.ap;
                slot.tag = id;
                slot.mcs = 0;
                slot.time_s = cursor;
                slot.duration_s = probe_slot_s;
                queue.push(slot);
                cursor += probe_slot_s;
            }
            for (const std::uint32_t id : mac::tdma_scheduler::interleave_shares(
                     round.shares)) {
                des_event slot;
                slot.kind = event_kind::data_slot;
                slot.ap = ev.ap;
                slot.tag = id;
                slot.mcs = robust_stamp[id] == stamp ? 0 : tag_mcs[id];
                slot.time_s = cursor;
                slot.duration_s = mcs_slot_s[slot.mcs];
                queue.push(slot);
                cursor += slot.duration_s;
            }
            // A fully quarantined, probe-less round still advances time by
            // one robust slot so the backoff clock keeps ticking.
            if (cursor == ev.time_s) cursor += mcs_slot_s[0];
            cell_end_s[ev.ap] = cursor;
            ++result.rounds;
            if (++rounds_done[ev.ap] < cfg.frames) {
                des_event next;
                next.kind = event_kind::round_begin;
                next.ap = ev.ap;
                next.time_s = cursor;
                queue.push(next);
            }
        } else {
            const auto shared_imp = shared_injector.at(ev.time_s, ev.duration_s);
            const fault::impairment tag_imp =
                ev.tag < faulted ? tag_injectors[ev.tag].at(ev.time_s, ev.duration_s)
                                 : fault::impairment{};
            const bool powered = shared_imp.tag_powered && tag_imp.tag_powered;
            // SINR-level form of the one sample-level application,
            // fault::impairment (tag_scale, apply_to_carrier,
            // apply_at_antenna), and must agree with it: blockage shadows
            // the tag path both ways (power x a^4), a dropout scales the
            // illuminating carrier once (power x c^2), the interferer is
            // referenced to the tag's nominal return.
            const double a = shared_imp.tag_amplitude * tag_imp.tag_amplitude;
            const double c = shared_imp.carrier_amplitude * tag_imp.carrier_amplitude;
            const double rel_db =
                std::max(shared_imp.interferer_rel_db, tag_imp.interferer_rel_db);
            slot_tag_state& tag = tag_state[ev.tag];
            double sinr_eff_db = tag.clean_sinr_db;
            if (a != 1.0 || c != 1.0 || rel_db > interferer_floor_db) {
                const double s_lin = tag.sinr_lin;
                const double signal_factor = a * a * a * a * c * c;
                const double denom =
                    1.0 + (rel_db > interferer_floor_db ? s_lin * from_db(rel_db) : 0.0);
                sinr_eff_db = to_db(s_lin * signal_factor / denom);
            }
            if (sinr_hist != nullptr) sinr_hist->observe(sinr_eff_db);

            bool delivered = false;
            if (powered) {
                const double per = table.per(ev.mcs, sinr_eff_db);
                delivered = event_uniform(draw_seed, ev.seq) >= per;
            } else {
                ++result.brownout_losses;
            }
            outcome = delivered ? 1 : 0;

            auto& sup = *supervisors[ev.ap];
            if (ev.kind == event_kind::probe_slot) {
                ++result.probe_slots;
                sup.record_probe(ev.tag, delivered);
            } else {
                ++result.data_slots;
                if (sup.record_data(ev.tag, delivered)) {
                    ++tag.attempts;
                    if (delivered) {
                        ++tag.delivered;
                        ++result.delivered;
                    }
                }
            }
        }

        const std::size_t length = format_event_line(ev, outcome, line);
        result.event_log_hash = fnv1a64_line(result.event_log_hash, line, length);
        if (cfg.record_event_log) result.event_log.append(line, length);
    }

    result.events = queue.pushed();
    result.attempts_per_tag.resize(n);
    result.delivered_per_tag.resize(n);
    for (std::size_t t = 0; t < n; ++t) {
        result.attempts_per_tag[t] = tag_state[t].attempts;
        result.delivered_per_tag[t] = tag_state[t].delivered;
    }
    result.sim_time_s = *std::max_element(cell_end_s.begin(), cell_end_s.end());
    for (std::size_t t = 0; t < n; ++t) {
        const auto& sup = supervisors[topo.tags[t].ap];
        const net::tag_session& session = sup->session(topo.tags[t].id);
        result.transitions += session.transitions().size();
        for (const auto& transition : session.transitions()) {
            if (transition.from == net::session_state::probing &&
                transition.to == net::session_state::active) {
                ++result.readmissions;
            }
        }
        for (const std::size_t latency : session.readmit_latencies_rounds()) {
            result.readmit_latencies_rounds.push_back(latency);
        }
    }

    if (metrics != nullptr) {
        metrics->get_counter("scale/rounds").add(result.rounds);
        metrics->get_counter("scale/data_slots").add(result.data_slots);
        metrics->get_counter("scale/probe_slots").add(result.probe_slots);
        metrics->get_counter("scale/delivered").add(result.delivered);
        metrics->get_counter("scale/brownout_losses").add(result.brownout_losses);
        metrics->get_counter("scale/goodput_bits")
            .add(result.delivered * cfg.payload_bytes * 8);
        metrics->get_gauge("scale/sim_time_s").set(result.sim_time_s);
    }
    return result;
}

double scale_result::goodput_bps() const
{
    if (!(sim_time_s > 0.0)) return 0.0;
    return static_cast<double>(delivered * config.payload_bytes * 8) / sim_time_s;
}

double scale_result::fairness_index() const
{
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const std::uint64_t d : delivered_per_tag) {
        const auto x = static_cast<double>(d);
        sum += x;
        sum_sq += x * x;
    }
    if (sum_sq <= 0.0) return 0.0;
    return sum * sum / (static_cast<double>(delivered_per_tag.size()) * sum_sq);
}

std::string scale_result::event_log_hash_hex() const
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(event_log_hash));
    return hex;
}

runtime::json_value scale_result::to_json() const
{
    using runtime::json_value;
    auto doc = runtime::schema_object("mmtag.scale.result/1");
    doc.set("tags", json_value::unsigned_integer(config.topology.tag_count));
    doc.set("aps", json_value::unsigned_integer(config.topology.ap_count));
    doc.set("layout", json_value::string(layout_name(config.topology.layout)));
    doc.set("frames", json_value::unsigned_integer(config.frames));
    doc.set("payload_bytes", json_value::unsigned_integer(config.payload_bytes));
    doc.set("trials", json_value::unsigned_integer(config.trials));
    doc.set("seed", json_value::unsigned_integer(config.seed));
    doc.set("fault_seed", json_value::unsigned_integer(config.fault_seed));
    doc.set("faulted", json_value::unsigned_integer(config.faulted));
    doc.set("rounds", json_value::unsigned_integer(rounds));
    doc.set("events", json_value::unsigned_integer(events));
    doc.set("data_slots", json_value::unsigned_integer(data_slots));
    doc.set("probe_slots", json_value::unsigned_integer(probe_slots));
    doc.set("delivered", json_value::unsigned_integer(delivered));
    doc.set("brownout_losses", json_value::unsigned_integer(brownout_losses));
    doc.set("sim_time_s", json_value::number(sim_time_s));
    doc.set("goodput_bps", runtime::ratio_or_null(goodput_bps(), delivered));
    doc.set("fairness_index",
            runtime::ratio_or_null(fairness_index(), delivered));
    doc.set("transitions", json_value::unsigned_integer(transitions));
    doc.set("readmissions", json_value::unsigned_integer(readmissions));
    doc.set("readmit_latency_count",
            json_value::unsigned_integer(readmit_latency_count));
    doc.set("readmit_latency_mean_rounds",
            runtime::ratio_or_null(readmit_latency_mean_rounds, readmit_latency_count));
    doc.set("readmit_latency_max_rounds",
            json_value::unsigned_integer(readmit_latency_max_rounds));
    doc.set("event_log_hash", json_value::string(event_log_hash_hex()));
    auto delivered_list = json_value::array();
    for (const std::uint64_t d : delivered_per_tag) {
        delivered_list.push(json_value::unsigned_integer(d));
    }
    doc.set("delivered_per_tag", std::move(delivered_list));
    return doc;
}

scale_result run_scale(const scale_config& cfg, std::size_t jobs,
                       obs::metrics_registry* metrics, const std::string& cache_dir)
{
    if (cfg.trials == 0) throw std::invalid_argument("run_scale: trials must be >= 1");
    if (cfg.frames == 0) throw std::invalid_argument("run_scale: frames must be >= 1");
    const auto setup_start = std::chrono::steady_clock::now();
    const deployment topo = make_deployment(cfg.topology, cfg.scenario);

    phy_table_config table_cfg = cfg.phy;
    table_cfg.scenario = cfg.scenario;
    table_cfg.payload_bytes = cfg.payload_bytes;
    auto cache = phy_table::load_or_generate(table_cfg, jobs, cache_dir);

    const auto trials_start = std::chrono::steady_clock::now();
    runtime::thread_pool pool(jobs);
    std::vector<obs::metrics_registry> registries(metrics != nullptr ? cfg.trials : 0);
    const auto trials = runtime::ordered_parallel_results(
        pool, cfg.trials, [&](std::size_t trial) {
            obs::metrics_registry* registry =
                metrics != nullptr ? &registries[trial] : nullptr;
            return run_scale_trial(cfg, topo, cache.table, trial, registry);
        });

    scale_result result;
    result.config = cfg;
    result.setup_s = std::chrono::duration<double>(trials_start - setup_start).count();
    result.jobs = pool.jobs();
    result.cache_hit = cache.cache_hit;
    result.phy_table_path = cache.path;
    result.attempts_per_tag.assign(topo.tags.size(), 0);
    result.delivered_per_tag.assign(topo.tags.size(), 0);
    result.event_log_hash = 0xcbf29ce484222325ULL;
    std::uint64_t latency_sum = 0;
    for (const auto& trial : trials) {
        for (std::size_t t = 0; t < topo.tags.size(); ++t) {
            result.attempts_per_tag[t] += trial.attempts_per_tag[t];
            result.delivered_per_tag[t] += trial.delivered_per_tag[t];
        }
        result.data_slots += trial.data_slots;
        result.probe_slots += trial.probe_slots;
        result.delivered += trial.delivered;
        result.brownout_losses += trial.brownout_losses;
        result.rounds += trial.rounds;
        result.events += trial.events;
        result.sim_time_s += trial.sim_time_s;
        result.transitions += trial.transitions;
        result.readmissions += trial.readmissions;
        for (const std::size_t latency : trial.readmit_latencies_rounds) {
            ++result.readmit_latency_count;
            latency_sum += latency;
            result.readmit_latency_max_rounds =
                std::max(result.readmit_latency_max_rounds,
                         static_cast<std::uint64_t>(latency));
        }
        result.event_log_hash = runtime::mix64(result.event_log_hash ^
                                               trial.event_log_hash);
        if (cfg.record_event_log) result.event_logs.push_back(trial.event_log);
    }
    result.readmit_latency_mean_rounds =
        result.readmit_latency_count > 0
            ? static_cast<double>(latency_sum) /
                  static_cast<double>(result.readmit_latency_count)
            : 0.0;
    if (metrics != nullptr) {
        for (const auto& registry : registries) metrics->merge(registry);
    }
    return result;
}

} // namespace mmtag::scale
