#include "mmtag/net/network_supervisor.hpp"

#include <stdexcept>

#include "mmtag/obs/metrics_registry.hpp"

namespace mmtag::net {

network_supervisor::network_supervisor(const supervisor_config& cfg,
                                       std::vector<std::uint32_t> tag_ids)
    : cfg_(cfg), tag_ids_(std::move(tag_ids))
{
    if (tag_ids_.empty()) {
        throw std::invalid_argument("network_supervisor: no tags");
    }
    // Hashed (tag id -> session index) side table: record_data/record_probe
    // fire once per slot per round, so the lookup must not grow with the
    // cell — at ~10^4 tags per AP even a binary search shows per slot.
    if (tag_ids_.size() >= (std::size_t{1} << 31)) {
        throw std::invalid_argument("network_supervisor: too many tags");
    }
    std::size_t buckets = 2;
    index_shift_ = 63;
    while (buckets < 2 * tag_ids_.size()) {
        buckets *= 2;
        --index_shift_;
    }
    index_.assign(buckets, 0);
    for (std::size_t i = 0; i < tag_ids_.size(); ++i) {
        const std::uint32_t id = tag_ids_[i];
        std::size_t bucket = home_bucket(id);
        for (; index_[bucket] != 0; bucket = (bucket + 1) & (buckets - 1)) {
            if ((index_[bucket] >> 32) == id) {
                throw std::invalid_argument("network_supervisor: duplicate tag id");
            }
        }
        index_[bucket] = (std::uint64_t{id} << 32) | (i + 1);
    }
    sessions_.reserve(tag_ids_.size());
    for (const std::uint32_t id : tag_ids_) sessions_.emplace_back(id, cfg.session);
}

std::size_t network_supervisor::home_bucket(std::uint32_t tag_id) const
{
    // Fibonacci hashing: the top bits of id * 2^64/phi spread consecutive
    // ids evenly over the table.
    return static_cast<std::size_t>((tag_id * 0x9E3779B97F4A7C15ULL) >> index_shift_);
}

std::size_t network_supervisor::session_index(std::uint32_t tag_id) const
{
    for (std::size_t bucket = home_bucket(tag_id);;
         bucket = (bucket + 1) & (index_.size() - 1)) {
        const std::uint64_t entry = index_[bucket];
        if (entry == 0) throw std::invalid_argument("network_supervisor: unknown tag id");
        if ((entry >> 32) == tag_id) return static_cast<std::size_t>(entry & 0xffffffffULL) - 1;
    }
}

const tag_session& network_supervisor::session(std::uint32_t tag_id) const
{
    return sessions_[session_index(tag_id)];
}

tag_session& network_supervisor::session_mut(std::uint32_t tag_id)
{
    // Outcomes arrive in the order the plan dealt the slots, which walks
    // sessions_ in index order: try the session after the last one recorded
    // before hashing, and the lookup reads tag_ids_ sequentially.
    std::size_t idx = record_cursor_;
    if (idx >= tag_ids_.size() || tag_ids_[idx] != tag_id) idx = session_index(tag_id);
    record_cursor_ = idx + 1;
    return sessions_[idx];
}

std::size_t network_supervisor::healthy_count() const
{
    std::size_t count = 0;
    for (const auto& s : sessions_) {
        if (s.schedulable()) ++count;
    }
    return count;
}

std::size_t network_supervisor::current_round() const
{
    if (round_ == 0) {
        throw std::logic_error("network_supervisor: record before plan_round");
    }
    return round_ - 1;
}

// Bumps the net/... observability counters for transitions logged since
// `before` (the caller snapshots the log size around each mutation).
void network_supervisor::note_transitions(const tag_session& session,
                                          std::size_t before) const
{
    if (cfg_.metrics == nullptr) return;
    const auto& log = session.transitions();
    for (std::size_t i = before; i < log.size(); ++i) {
        cfg_.metrics->get_counter("net/transitions").add();
        const auto& t = log[i];
        if (t.to == session_state::degraded) {
            cfg_.metrics->get_counter("net/degraded").add();
        } else if (t.to == session_state::quarantined &&
                   t.from == session_state::degraded) {
            cfg_.metrics->get_counter("net/quarantined").add();
        } else if (t.to == session_state::active &&
                   t.from == session_state::probing) {
            cfg_.metrics->get_counter("net/readmitted").add();
            cfg_.metrics
                ->get_histogram("net/readmit_latency_rounds", obs::rounds_bounds())
                .observe(static_cast<double>(
                    session.readmit_latencies_rounds().back()));
        }
    }
}

round_plan network_supervisor::plan_round()
{
    const std::size_t n = sessions_.size();
    round_plan plan;
    plan.round = round_;

    // Probe grants: due quarantined sessions enter PROBING for this round.
    for (auto& s : sessions_) {
        if (!s.probe_due(round_)) continue;
        const std::size_t before = s.transitions().size();
        s.begin_probe(round_);
        note_transitions(s, before);
        plan.probes.push_back(s.tag_id());
    }

    // Budget-conserving reallocation: the same number of data slots every
    // round, dealt round-robin over schedulable sessions starting at a
    // rotating offset so any remainder (and any sub-budget regime) moves
    // across the population instead of pinning to the same tags.
    std::vector<std::size_t> eligible;
    eligible.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t idx = (rotation_ + i) % n;
        if (sessions_[idx].schedulable()) eligible.push_back(idx);
    }
    if (!eligible.empty()) {
        const std::size_t budget = cfg_.slot_budget != 0 ? cfg_.slot_budget : n;
        const std::size_t base = budget / eligible.size();
        const std::size_t extra = budget % eligible.size();
        plan.shares.reserve(eligible.size());
        for (std::size_t j = 0; j < eligible.size(); ++j) {
            const auto& s = sessions_[eligible[j]];
            const std::size_t slots = base + (j < extra ? 1 : 0);
            if (slots == 0) continue;
            plan.shares.push_back({s.tag_id(), slots});
            if (s.state() == session_state::degraded) {
                plan.robust.push_back(s.tag_id());
            }
        }
    }

    if (cfg_.metrics != nullptr) {
        cfg_.metrics->get_counter("net/rounds").add();
        cfg_.metrics->get_counter("net/probe_slots").add(plan.probes.size());
        cfg_.metrics->get_gauge("net/healthy_tags")
            .set(static_cast<double>(healthy_count()));
    }

    ++round_;
    rotation_ = (rotation_ + 1) % n;
    return plan;
}

bool network_supervisor::record_data(std::uint32_t tag_id, bool delivered)
{
    auto& s = session_mut(tag_id);
    // A session that quarantined on an earlier outcome this round still owns
    // its remaining scheduled slots; the AP discards those outcomes.
    if (!s.schedulable()) {
        (void)current_round(); // still reject record-before-plan
        return false;
    }
    const std::size_t before = s.transitions().size();
    s.record_data(delivered, current_round());
    note_transitions(s, before);
    return true;
}

void network_supervisor::record_probe(std::uint32_t tag_id, bool delivered)
{
    auto& s = session_mut(tag_id);
    const std::size_t before = s.transitions().size();
    s.record_probe(delivered, current_round());
    note_transitions(s, before);
}

} // namespace mmtag::net
