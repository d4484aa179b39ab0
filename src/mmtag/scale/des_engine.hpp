// Deterministic discrete-event simulator for multi-AP, thousand-tag mmtag
// networks. Each AP cell runs its own TDMA round loop (planned by an
// unmodified net::network_supervisor); every scheduled slot becomes one
// event whose packet outcome is drawn from the calibrated scale::phy_table
// at the tag's per-slot SINR — static topology SINR perturbed by the
// fault::multi_tag_plan impairments active over the slot window.
//
// Determinism contract (same as the Monte-Carlo runtime's):
//   * the event queue orders by (time, sequence number) with the sequence
//     assigned at push, so simultaneous events pop in creation order on
//     every run;
//   * each packet draw is keyed by the event's global sequence number
//     through runtime::substream — outcomes depend on *which* event, never
//     on scheduling or --jobs;
//   * trials fan out across the thread pool into pre-allocated slots and
//     fold back in trial order.
// Every event also feeds a running FNV-1a hash of its formatted log line
// (recorded verbatim only when `record_event_log` is set), so byte-identity
// of whole runs is checked cheaply across --jobs values.
//
// Impairment -> SINR mapping mirrors how core::link_simulator applies the
// same impairments to samples: blockage shadows the tag path twice (power
// x a^4), a carrier dropout scales the illuminator once (power x c^2), the
// shared interferer adds power relative to the tag's nominal return, and a
// brownout suppresses the response entirely.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mmtag/fault/multi_tag_faults.hpp"
#include "mmtag/net/tag_session.hpp"
#include "mmtag/runtime/result_writer.hpp"
#include "mmtag/scale/phy_table.hpp"
#include "mmtag/scale/topology.hpp"

namespace mmtag::obs {
class metrics_registry;
}

namespace mmtag::scale {

enum class event_kind : std::uint8_t { round_begin = 0, data_slot = 1, probe_slot = 2 };

[[nodiscard]] const char* event_kind_name(event_kind kind);

struct des_event {
    double time_s = 0.0;
    std::uint64_t seq = 0; ///< assigned by event_queue::push
    event_kind kind = event_kind::round_begin;
    std::uint32_t ap = 0;
    std::uint32_t tag = 0;
    std::uint16_t mcs = 0;    ///< rate-ladder index for slot events
    double duration_s = 0.0;  ///< slot window (fault query span)
};

/// Event queue with stable tie-breaking: events at equal times pop in push
/// order (ascending sequence number), never in heap order.
///
/// Events are stored in push order in one log. A push whose time is not
/// earlier than the previous push's extends the current *run*; any other
/// push opens a new run. A run is therefore sorted by (time, seq), and the
/// queue's minimum is the smallest run head, found through a small binary
/// heap of runs. A DES round pushes its slots in time order, so one AP round
/// is one run: pops cost O(log runs) with runs ~ APs instead of O(log
/// events), and both ends of every run are read sequentially. Any push order
/// stays correct; in the worst case (falling times) each run holds one event
/// and this is an ordinary binary heap. Popped entries are compacted out of
/// the log once they outnumber the pending ones, so memory stays
/// proportional to the queue's peak depth.
class event_queue {
public:
    /// Stamps the event with the next global sequence number and enqueues
    /// it; returns the assigned sequence.
    std::uint64_t push(des_event event);
    [[nodiscard]] des_event pop();
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] std::uint64_t pushed() const { return next_seq_; }

private:
    /// Pending events log_[head, end), sorted by (time, seq).
    struct run {
        std::size_t head = 0;
        std::size_t end = 0;
    };
    static constexpr std::uint32_t no_run = 0xffffffffu;

    /// (time, seq) order of two runs' head events.
    [[nodiscard]] bool head_before(std::uint32_t a, std::uint32_t b) const;
    void sift_up(std::size_t pos);
    void sift_down(std::size_t pos);
    /// Drops popped entries from log_, keeping runs in log order.
    void compact();

    std::vector<des_event> log_;
    std::vector<run> runs_;
    std::vector<std::uint32_t> free_runs_;
    std::vector<std::uint32_t> heap_; ///< live runs, min-heap on head event
    std::uint32_t open_ = no_run;     ///< live run ending at log_.size()
    std::size_t size_ = 0;
    std::size_t popped_in_log_ = 0;
    std::uint64_t next_seq_ = 0;
};

/// Buffer size format_event_line needs: room for the longest line any
/// finite time can produce.
inline constexpr std::size_t event_line_capacity = 384;

/// Writes the event-log line of `event` with packet outcome `outcome` (-1
/// for round events) into `out` and returns its length. The bytes equal
/// printf("%llu %.9f %u %s %u %u %d\n", seq, time_s, ap, kind, tag, mcs,
/// outcome): std::to_chars in fixed notation with precision 9 prints the
/// exact decimal expansion of the double correctly rounded (ties to even),
/// which is what glibc's printf prints too.
std::size_t format_event_line(const des_event& event, int outcome,
                              char (&out)[event_line_capacity]);

struct scale_config {
    topology_config topology{};
    core::system_config scenario = core::fast_scenario();
    /// TDMA rounds each AP runs per trial.
    std::size_t frames = 200;
    std::size_t payload_bytes = 16;
    /// Data-slot budget per AP round; 0 = one per tag in the cell.
    std::size_t slot_budget = 0;
    net::session_config session{};
    /// Rate-adaptation margin for each tag's static MCS choice [dB].
    double margin_db = 2.0;
    /// Tags receiving per-tag fault timelines (ids [0, faulted)); the
    /// shared timeline applies regardless.
    std::size_t faulted = 0;
    /// Fault mix. `horizon_s`, `interferer_start_s`, and
    /// `interferer_duration_s` are overridden per trial: the engine rescales
    /// them to the nominal schedule length so the interferer transient and
    /// the recovery tail land inside the run at any tag count.
    fault::multi_tag_config faults{};
    /// Calibration parameters for the PHY table. `scenario` and
    /// `payload_bytes` inside are overridden from the fields above so the
    /// table always matches the simulated link; the grid/frames/seed fields
    /// control calibration cost (tests use a coarse grid).
    phy_table_config phy{};
    std::uint64_t seed = 1;
    std::uint64_t fault_seed = 99;
    std::size_t trials = 1;
    /// Keep the full event log text per trial (the hash is always kept).
    bool record_event_log = false;
};

/// One trial's raw outcome; merged across trials into scale_result.
struct scale_trial_result {
    std::vector<std::uint64_t> attempts_per_tag;
    std::vector<std::uint64_t> delivered_per_tag;
    std::uint64_t data_slots = 0;
    std::uint64_t probe_slots = 0;
    std::uint64_t delivered = 0;
    std::uint64_t brownout_losses = 0;
    std::uint64_t rounds = 0;
    std::uint64_t events = 0;
    double sim_time_s = 0.0; ///< latest AP round-loop end
    std::uint64_t transitions = 0;
    std::uint64_t readmissions = 0;
    std::vector<std::size_t> readmit_latencies_rounds;
    std::uint64_t event_log_hash = 0; ///< FNV-1a over every event line
    std::string event_log;            ///< only when record_event_log
};

struct scale_result {
    scale_config config;
    std::size_t jobs = 1;
    std::vector<std::uint64_t> attempts_per_tag;  ///< summed over trials
    std::vector<std::uint64_t> delivered_per_tag; ///< summed over trials
    std::uint64_t data_slots = 0;
    std::uint64_t probe_slots = 0;
    std::uint64_t delivered = 0;
    std::uint64_t brownout_losses = 0;
    std::uint64_t rounds = 0;
    std::uint64_t events = 0;
    double sim_time_s = 0.0; ///< summed across trials
    std::uint64_t transitions = 0;
    std::uint64_t readmissions = 0;
    std::uint64_t readmit_latency_count = 0;
    double readmit_latency_mean_rounds = 0.0;
    std::uint64_t readmit_latency_max_rounds = 0;
    /// Ordered fold of per-trial event-log hashes.
    std::uint64_t event_log_hash = 0;
    std::vector<std::string> event_logs; ///< per trial, when recorded
    bool cache_hit = false;              ///< phy_table came from disk
    std::string phy_table_path;
    /// Wall time of the set-up (topology build, phy_table load or
    /// calibration). A run fact, so not in to_json().
    double setup_s = 0.0;

    /// Delivered payload bits per second of simulated time.
    [[nodiscard]] double goodput_bps() const;
    /// Jain's fairness index over delivered_per_tag (1 = perfectly fair).
    [[nodiscard]] double fairness_index() const;
    /// event_log_hash as 16 lower-case hex digits, as result files carry it.
    [[nodiscard]] std::string event_log_hash_hex() const;
    /// Schema "mmtag.scale.result/1"; deterministic for any --jobs.
    [[nodiscard]] runtime::json_value to_json() const;
};

/// Runs one trial sequentially against a prebuilt deployment + phy table.
/// Exposed for the determinism tests; run_scale is the normal entry point.
[[nodiscard]] scale_trial_result run_scale_trial(const scale_config& cfg,
                                                 const deployment& topo,
                                                 const phy_table& table,
                                                 std::size_t trial,
                                                 obs::metrics_registry* metrics);

/// Builds the deployment, loads or generates the phy table (disk cache
/// under `cache_dir`), runs `cfg.trials` trials on `jobs` workers, and
/// folds the results in trial order. `metrics` (optional) receives the
/// merged scale/... and net/... registries, folded deterministically.
[[nodiscard]] scale_result run_scale(const scale_config& cfg, std::size_t jobs,
                                     obs::metrics_registry* metrics = nullptr,
                                     const std::string& cache_dir = "bench/out");

} // namespace mmtag::scale
