// Network supervisor: one tag_session per tag driving degraded-mode TDMA
// scheduling. Each round it
//   * reallocates the fixed data-slot budget over schedulable sessions
//     (slots freed by quarantined tags flow to the healthy ones, interleaved
//     via mac::tdma_scheduler::interleave_shares and rotated for fairness),
//   * marks DEGRADED sessions for the robust MCS, and
//   * grants probe slots to quarantined sessions whose capped backoff has
//     expired.
// The plan/record split keeps the supervisor pure: any driver (the soak
// harness's sample-accurate multitag simulator, a unit test's scripted
// outcomes) executes the plan and reports per-frame results back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mmtag/mac/tdma.hpp"
#include "mmtag/net/tag_session.hpp"

namespace mmtag::obs {
class metrics_registry;
}

namespace mmtag::net {

struct supervisor_config {
    session_config session{};
    /// Data slots per round; 0 means one per tag. The budget is conserved:
    /// quarantined tags' slots are re-dealt, not dropped, so the cycle time
    /// (and the healthy tags' aggregate share) stays constant under faults.
    std::size_t slot_budget = 0;
    /// Optional observability registry (net/... counters, gauges, and the
    /// re-admission latency histogram). Not owned; nullptr disables.
    obs::metrics_registry* metrics = nullptr;
};

/// One round's schedule.
struct round_plan {
    std::size_t round = 0;
    /// Data-slot allocation for schedulable tags (feed to
    /// mac::tdma_scheduler::interleave_shares).
    std::vector<mac::slot_share> shares;
    /// Tags that must transmit at the robust MCS (DEGRADED sessions).
    std::vector<std::uint32_t> robust;
    /// Quarantined tags granted a probe slot this round.
    std::vector<std::uint32_t> probes;
};

class network_supervisor {
public:
    network_supervisor(const supervisor_config& cfg, std::vector<std::uint32_t> tag_ids);

    [[nodiscard]] std::size_t tag_count() const { return sessions_.size(); }
    [[nodiscard]] const tag_session& session(std::uint32_t tag_id) const;
    /// Rounds planned so far (the next plan_round() returns this index).
    [[nodiscard]] std::size_t rounds_planned() const { return round_; }
    /// Sessions currently schedulable (ACTIVE or DEGRADED).
    [[nodiscard]] std::size_t healthy_count() const;

    /// Plans the next round and advances the round counter. Quarantined
    /// sessions whose probe is due transition to PROBING here.
    [[nodiscard]] round_plan plan_round();

    /// Reports one data-frame outcome for the round just planned. Returns
    /// false (outcome discarded) when the session stopped being schedulable
    /// mid-round — a tag with several slots can quarantine on an earlier
    /// outcome, after which the AP ignores its remaining slots.
    bool record_data(std::uint32_t tag_id, bool delivered);
    /// Reports the probe outcome for a tag granted a probe slot.
    void record_probe(std::uint32_t tag_id, bool delivered);

private:
    [[nodiscard]] tag_session& session_mut(std::uint32_t tag_id);
    [[nodiscard]] std::size_t home_bucket(std::uint32_t tag_id) const;
    [[nodiscard]] std::size_t session_index(std::uint32_t tag_id) const;
    [[nodiscard]] std::size_t current_round() const;
    void note_transitions(const tag_session& session, std::size_t before) const;

    supervisor_config cfg_;
    std::vector<std::uint32_t> tag_ids_;
    std::vector<tag_session> sessions_;
    /// Open-addressing hash table, tag id -> sessions_ index, for O(1)
    /// session lookup: entries pack (id << 32 | index + 1), 0 marks an empty
    /// bucket, and the table is at most half full so probes stay short.
    std::vector<std::uint64_t> index_;
    unsigned index_shift_ = 0; ///< 64 - log2(index_.size())
    std::size_t record_cursor_ = 0; ///< sessions_ index the next record likely hits
    std::size_t round_ = 0;
    std::size_t rotation_ = 0;
};

} // namespace mmtag::net
