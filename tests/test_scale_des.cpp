// Discrete-event engine determinism: identical seeds replay byte-identically
// across --jobs 1 vs 8 (event logs, hashes, and emitted JSON), the event
// queue breaks time ties by creation order and pops in (time, seq) order
// under any push pattern, the accounting invariants (frame conservation,
// event counts) hold under faults, event-log lines equal their printf
// reference byte for byte, and two configs reproduce golden output hashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <unistd.h>

#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/scale/des_engine.hpp"
#include "mmtag/scale/topology.hpp"

namespace {

using namespace mmtag;
using scale::des_event;
using scale::event_kind;
using scale::event_queue;
using scale::scale_config;
using scale::scale_result;

/// A cache directory named after this process, removed again at exit.
/// ctest runs each case in a process of its own, several at once under -j,
/// so a shared name would let one case clear the table another is reading.
class process_cache_dir {
public:
    process_cache_dir()
        : path_((std::filesystem::temp_directory_path() /
                 ("mmtag_des_test_cache_" + std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~process_cache_dir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }
    process_cache_dir(const process_cache_dir&) = delete;
    process_cache_dir& operator=(const process_cache_dir&) = delete;

    [[nodiscard]] const std::string& path() const { return path_; }

private:
    std::string path_;
};

/// One cache directory per test process: the first run_scale generates the
/// (deliberately coarse) table, every later call hits the cache.
const std::string& shared_cache_dir()
{
    static const process_cache_dir dir;
    return dir.path();
}

scale_config small_config()
{
    scale_config cfg;
    cfg.topology.tag_count = 40;
    cfg.topology.ap_count = 2;
    cfg.frames = 8;
    cfg.faulted = 4;
    cfg.trials = 4;
    cfg.record_event_log = true;
    // Coarse calibration grid: engine behaviour, not statistics, is under
    // test, and generation happens once thanks to the shared cache dir.
    cfg.phy.frames_per_point = 8;
    return cfg;
}

/// A faulted 2k-tag / 4-AP network: large enough that cells hold hundreds
/// of tags, faulted tags carry long fault timelines and the shared
/// interferer drives whole cells through quarantine and re-admission.
scale_config faulted_2k_config()
{
    scale_config cfg = small_config();
    cfg.topology.tag_count = 2000;
    cfg.topology.ap_count = 4;
    cfg.frames = 30;
    cfg.faulted = 200;
    cfg.trials = 2;
    cfg.record_event_log = false;
    return cfg;
}

std::uint64_t fnv1a64(const std::string& text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char ch : text) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

TEST(ScaleDes, EventQueueBreaksTiesByCreationOrder)
{
    event_queue queue;
    // Fabricated tie: three events at the same instant, pushed after a
    // later-time event to make heap order diverge from push order.
    des_event late;
    late.time_s = 2.0;
    late.tag = 99;
    queue.push(late);
    for (std::uint32_t tag = 0; tag < 3; ++tag) {
        des_event ev;
        ev.time_s = 1.0;
        ev.tag = tag;
        ev.kind = event_kind::data_slot;
        queue.push(ev);
    }
    EXPECT_EQ(queue.size(), 4u);
    for (std::uint32_t tag = 0; tag < 3; ++tag) {
        const des_event ev = queue.pop();
        EXPECT_DOUBLE_EQ(ev.time_s, 1.0);
        EXPECT_EQ(ev.tag, tag); // creation order, not heap order
    }
    EXPECT_EQ(queue.pop().tag, 99u);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.pushed(), 4u);
}

TEST(ScaleDes, EventQueueSequenceIsMonotonic)
{
    event_queue queue;
    des_event ev;
    ev.time_s = 5.0;
    const std::uint64_t first = queue.push(ev);
    ev.time_s = 3.0;
    const std::uint64_t second = queue.push(ev);
    EXPECT_LT(first, second);
    EXPECT_EQ(queue.pop().seq, second); // earlier time pops first
    EXPECT_EQ(queue.pop().seq, first);
}

TEST(ScaleDes, EventQueuePopsInTimeSeqOrderUnderRandomUse)
{
    // Reference: a sorted list of (time, seq). The mix covers rising runs
    // (the DES pattern), falling and equal times (one-event runs, ties),
    // bursts that keep ~10^4 events pending and drains that empty the queue,
    // so runs are opened, extended, exhausted and compacted many times.
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    event_queue queue;
    std::vector<std::pair<double, std::uint64_t>> pending;
    double now = 0.0;
    std::size_t popped = 0;
    for (int step = 0; step < 200000; ++step) {
        const double u = unit(rng);
        const bool filling = (step / 20000) % 2 == 0;
        const bool push = pending.empty() || (filling ? u < 0.6 : u < 0.4);
        if (push) {
            des_event ev;
            const double v = unit(rng);
            if (v < 0.5) ev.time_s = now + static_cast<double>(step % 97) * 1e-3; // rising
            else if (v < 0.7) ev.time_s = now + 1.0; // equal times
            else ev.time_s = now + unit(rng) * 2.0;  // arbitrary
            ev.tag = static_cast<std::uint32_t>(queue.pushed()); // the seq it gets
            const std::uint64_t seq = queue.push(ev);
            pending.emplace(std::upper_bound(pending.begin(), pending.end(),
                                             std::make_pair(ev.time_s, seq)),
                            ev.time_s, seq);
        } else {
            const des_event ev = queue.pop();
            ASSERT_EQ(ev.time_s, pending.front().first) << "pop " << popped;
            ASSERT_EQ(ev.seq, pending.front().second) << "pop " << popped;
            ASSERT_EQ(ev.tag, static_cast<std::uint32_t>(ev.seq)) << "payload follows its key";
            pending.erase(pending.begin());
            now = ev.time_s;
            ++popped;
        }
        ASSERT_EQ(queue.size(), pending.size());
    }
    while (!queue.empty()) {
        ASSERT_EQ(queue.pop().seq, pending.front().second);
        pending.erase(pending.begin());
    }
    EXPECT_TRUE(pending.empty());
    EXPECT_THROW((void)queue.pop(), std::logic_error);
}

TEST(ScaleDes, JobsDoNotChangeResults)
{
    const auto cfg = small_config();
    // Warm the cache so both runs load the same table from disk.
    (void)scale::run_scale(cfg, 1, nullptr, shared_cache_dir());

    obs::metrics_registry metrics_a;
    obs::metrics_registry metrics_b;
    const scale_result a = scale::run_scale(cfg, 1, &metrics_a, shared_cache_dir());
    const scale_result b = scale::run_scale(cfg, 8, &metrics_b, shared_cache_dir());

    // Byte-identical emitted JSON is the contract the benches rely on.
    EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
    EXPECT_EQ(a.event_log_hash, b.event_log_hash);
    ASSERT_EQ(a.event_logs.size(), cfg.trials);
    ASSERT_EQ(b.event_logs.size(), cfg.trials);
    for (std::size_t trial = 0; trial < cfg.trials; ++trial) {
        EXPECT_EQ(a.event_logs[trial], b.event_logs[trial]) << "trial " << trial;
        EXPECT_FALSE(a.event_logs[trial].empty());
    }
    EXPECT_EQ(metrics_a.to_json().dump(), metrics_b.to_json().dump());
}

TEST(ScaleDes, AccountingInvariantsHold)
{
    const auto cfg = small_config();
    const scale_result r = scale::run_scale(cfg, 1, nullptr, shared_cache_dir());

    std::uint64_t delivered = 0;
    ASSERT_EQ(r.delivered_per_tag.size(), cfg.topology.tag_count);
    for (std::size_t t = 0; t < r.delivered_per_tag.size(); ++t) {
        EXPECT_LE(r.delivered_per_tag[t], r.attempts_per_tag[t]);
        delivered += r.delivered_per_tag[t];
    }
    EXPECT_EQ(delivered, r.delivered);
    EXPECT_LE(r.delivered, r.data_slots);
    EXPECT_EQ(r.events, r.rounds + r.data_slots + r.probe_slots);
    EXPECT_EQ(r.rounds, cfg.frames * cfg.topology.ap_count * cfg.trials);
    EXPECT_GT(r.sim_time_s, 0.0);
    EXPECT_GT(r.delivered, 0u);
    EXPECT_GT(r.fairness_index(), 0.0);
    EXPECT_LE(r.fairness_index(), 1.0 + 1e-12);
}

TEST(ScaleDes, MoreApsThanTagsLeavesEmptyCellsIdle)
{
    // 3 tags under 8 APs: most cells are empty, and an empty cell runs no
    // rounds at all.
    auto cfg = small_config();
    cfg.topology.tag_count = 3;
    cfg.topology.ap_count = 8;
    cfg.faulted = 1;
    cfg.trials = 2;
    const auto topo = scale::make_deployment(cfg.topology, cfg.scenario);
    std::vector<bool> empty_cell(cfg.topology.ap_count);
    std::size_t busy_cells = 0;
    for (std::size_t ap = 0; ap < empty_cell.size(); ++ap) {
        empty_cell[ap] = topo.cells[ap].empty();
        if (!empty_cell[ap]) ++busy_cells;
    }
    ASSERT_LT(busy_cells, cfg.topology.ap_count);

    const scale_result r = scale::run_scale(cfg, 1, nullptr, shared_cache_dir());
    EXPECT_EQ(r.events, r.rounds + r.data_slots + r.probe_slots);
    EXPECT_LE(r.delivered, r.data_slots);
    EXPECT_EQ(r.rounds, cfg.frames * busy_cells * cfg.trials);
    ASSERT_EQ(r.event_logs.size(), cfg.trials);
    for (const auto& log : r.event_logs) {
        std::istringstream lines(log);
        std::string line;
        while (std::getline(lines, line)) {
            std::istringstream fields(line);
            unsigned long long seq = 0;
            double time_s = 0.0;
            std::size_t ap = empty_cell.size();
            fields >> seq >> time_s >> ap;
            ASSERT_LT(ap, empty_cell.size()) << line;
            EXPECT_FALSE(empty_cell[ap]) << line;
        }
    }
}

TEST(ScaleDes, FaultsDriveQuarantineAndReadmission)
{
    auto cfg = small_config();
    cfg.frames = 40; // long enough for the probe backoff to re-admit
    cfg.trials = 1;
    const scale_result r = scale::run_scale(cfg, 1, nullptr, shared_cache_dir());
    EXPECT_GT(r.transitions, 0u);
    EXPECT_GT(r.readmissions, 0u);
    EXPECT_EQ(r.readmit_latency_count, r.readmissions);
    EXPECT_GE(static_cast<double>(r.readmit_latency_max_rounds),
              r.readmit_latency_mean_rounds);
}

TEST(ScaleDes, SeedChangesOutcomes)
{
    auto cfg = small_config();
    cfg.trials = 1;
    const scale_result a = scale::run_scale(cfg, 1, nullptr, shared_cache_dir());
    cfg.seed ^= 0xdecafbad;
    const scale_result b = scale::run_scale(cfg, 1, nullptr, shared_cache_dir());
    EXPECT_NE(a.event_log_hash, b.event_log_hash);
}

TEST(ScaleDes, TrialRunsAreReproducible)
{
    const auto cfg = small_config();
    const auto topo = scale::make_deployment(cfg.topology, cfg.scenario);
    auto table_cfg = cfg.phy;
    table_cfg.scenario = cfg.scenario;
    table_cfg.payload_bytes = cfg.payload_bytes;
    const auto cache =
        scale::phy_table::load_or_generate(table_cfg, 1, shared_cache_dir());
    const auto a = scale::run_scale_trial(cfg, topo, cache.table, 2, nullptr);
    const auto b = scale::run_scale_trial(cfg, topo, cache.table, 2, nullptr);
    EXPECT_EQ(a.event_log_hash, b.event_log_hash);
    EXPECT_EQ(a.event_log, b.event_log);
    EXPECT_EQ(a.delivered, b.delivered);
}

TEST(ScaleDes, RejectsZeroTrials)
{
    auto cfg = small_config();
    cfg.trials = 0;
    EXPECT_THROW((void)scale::run_scale(cfg, 1, nullptr, shared_cache_dir()),
                 std::invalid_argument);
}

TEST(ScaleDes, RejectsZeroFrames)
{
    // Zero rounds is bad input, not an empty run: the first round_begin is
    // queued before the round count is checked, so it would simulate one.
    auto cfg = small_config();
    cfg.frames = 0;
    EXPECT_THROW((void)scale::run_scale(cfg, 1, nullptr, shared_cache_dir()),
                 std::invalid_argument);
    const auto topo = scale::make_deployment(cfg.topology, cfg.scenario);
    auto table_cfg = cfg.phy;
    table_cfg.scenario = cfg.scenario;
    table_cfg.payload_bytes = cfg.payload_bytes;
    const auto cache =
        scale::phy_table::load_or_generate(table_cfg, 1, shared_cache_dir());
    EXPECT_THROW((void)scale::run_scale_trial(cfg, topo, cache.table, 0, nullptr),
                 std::invalid_argument);
}

std::string printf_line(const des_event& ev, int outcome)
{
    char line[512];
    const int length = std::snprintf(line, sizeof line, "%llu %.9f %u %s %u %u %d\n",
                                     static_cast<unsigned long long>(ev.seq), ev.time_s,
                                     ev.ap, scale::event_kind_name(ev.kind), ev.tag, ev.mcs,
                                     outcome);
    return std::string(line, static_cast<std::size_t>(length));
}

std::string formatted_line(const des_event& ev, int outcome)
{
    char line[scale::event_line_capacity];
    return std::string(line, scale::format_event_line(ev, outcome, line));
}

TEST(ScaleDes, EventLineMatchesPrintfByteForByte)
{
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<double> times = {0.0,
                                 -0.0,
                                 1.0,
                                 0.0009765625,      // 2^-10: exact tie at the 10th digit
                                 0.0029296875,      // 3 * 2^-10: tie rounding up to even
                                 1e-10,
                                 4.9999999995e-10,
                                 123456.7890123455,
                                 1e15 + 0.5,
                                 1.7976931348623157e308,
                                 -2.5e-9};
    for (int i = 0; i < 200000; ++i) {
        const double u = unit(rng);
        times.push_back(i % 2 == 0 ? u * 30.0 : std::ldexp(u, static_cast<int>(rng() % 80) - 40));
    }
    const event_kind kinds[] = {event_kind::round_begin, event_kind::data_slot,
                                event_kind::probe_slot};
    for (std::size_t i = 0; i < times.size(); ++i) {
        des_event ev;
        ev.seq = i % 3 == 0 ? rng() : i;
        ev.time_s = times[i];
        ev.kind = kinds[i % 3];
        ev.ap = static_cast<std::uint32_t>(i % 7 == 0 ? rng() : i % 16);
        ev.tag = static_cast<std::uint32_t>(rng());
        ev.mcs = static_cast<std::uint16_t>(rng());
        const int outcome = static_cast<int>(i % 3) - 1;
        ASSERT_EQ(formatted_line(ev, outcome), printf_line(ev, outcome)) << "time " << times[i];
    }
}

TEST(ScaleDes, RecordedEventLogMatchesPrintfReference)
{
    auto cfg = small_config();
    cfg.trials = 1;
    cfg.frames = 3;
    const scale_result r = scale::run_scale(cfg, 1, nullptr, shared_cache_dir());
    ASSERT_EQ(r.event_logs.size(), 1u);
    // Re-read every logged field and print it again with printf: the text
    // must come back byte for byte. A 9-decimal time of a few seconds has at
    // most 15 significant digits, so it survives the parse exactly.
    std::istringstream log(r.event_logs[0]);
    std::string line;
    std::string reprinted;
    std::size_t lines = 0;
    while (std::getline(log, line)) {
        std::istringstream fields(line);
        unsigned long long seq = 0;
        std::string time_text;
        std::string kind;
        des_event ev;
        unsigned mcs = 0;
        int outcome = 0;
        fields >> seq >> time_text >> ev.ap >> kind >> ev.tag >> mcs >> outcome;
        ASSERT_FALSE(fields.fail()) << line;
        ev.seq = seq;
        ev.time_s = std::strtod(time_text.c_str(), nullptr);
        ev.mcs = static_cast<std::uint16_t>(mcs);
        ev.kind = kind == "round" ? event_kind::round_begin
                  : kind == "data" ? event_kind::data_slot
                                   : event_kind::probe_slot;
        reprinted += printf_line(ev, outcome);
        ++lines;
    }
    EXPECT_EQ(lines, r.events);
    EXPECT_EQ(reprinted, r.event_logs[0]);
}

// Golden outputs: literals captured from the snprintf-formatted,
// linear-scan engine. Any change to the per-event path must leave the event
// stream, every random draw and every emitted byte exactly as they were.
TEST(ScaleDes, GoldenOutputSmallConfig)
{
    const auto cfg = small_config();
    obs::metrics_registry metrics;
    const scale_result r = scale::run_scale(cfg, 2, &metrics, shared_cache_dir());
    EXPECT_EQ(r.event_log_hash, 0x92fa038f196049d6ULL);
    EXPECT_EQ(fnv1a64(r.to_json().dump()), 0x33771497b8458f33ULL);
    EXPECT_EQ(fnv1a64(metrics.to_json_string(obs::metric_view::deterministic)), 0x160811f96ca9d868ULL);
    ASSERT_EQ(r.event_logs.size(), cfg.trials);
    EXPECT_EQ(fnv1a64(r.event_logs[0]), 0x46081a7d1cd57c3fULL);
}

TEST(ScaleDes, GoldenOutputFaulted2k)
{
    const auto cfg = faulted_2k_config();
    obs::metrics_registry metrics;
    const scale_result r = scale::run_scale(cfg, 2, &metrics, shared_cache_dir());
    EXPECT_EQ(r.event_log_hash, 0xfdf72bb8fde252eeULL);
    EXPECT_EQ(fnv1a64(r.to_json().dump()), 0xd8430b5caba47dffULL);
    EXPECT_EQ(fnv1a64(metrics.to_json_string(obs::metric_view::deterministic)), 0x5e32d833331c8325ULL);
    EXPECT_GT(r.readmissions, 0u);
    EXPECT_GT(r.brownout_losses, 0u);
}

} // namespace
