// Post-inventory TDMA: the AP polls identified tags in a round-robin
// schedule. Models per-slot overhead (query, tag turnaround, guard) so the
// aggregate goodput saturates realistically as the population grows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mmtag::mac {

struct tdma_config {
    static constexpr double query_time_s = 10e-6; ///< AP query / slot announcement
    double turnaround_s = 2e-6;       ///< tag detect-to-respond latency
    static constexpr double guard_time_s = 1e-6;  ///< inter-slot guard
    std::size_t frame_payload_bytes = 256;
    double phy_rate_bps = 10e6;       ///< information rate during the burst
    /// PHY framing overhead in symbols converted to time by the caller via
    /// overhead_bits / phy_rate; preamble+header of the mmtag frame.
    std::size_t overhead_bits = 256;
};

/// Degraded-mode allocation: how many slots of the cycle a tag receives.
/// Zero drops the tag from the cycle (a quarantined session), counts above
/// one absorb airtime freed by dropped tags.
struct slot_share {
    std::uint32_t tag_id = 0;
    std::size_t slots = 1;
};

struct tdma_metrics {
    double cycle_time_s = 0.0;        ///< one full round over all tags
    double per_tag_goodput_bps = 0.0;
    double aggregate_goodput_bps = 0.0;
};

class tdma_scheduler {
public:
    explicit tdma_scheduler(const tdma_config& cfg = {});

    [[nodiscard]] const tdma_config& parameters() const { return cfg_; }

    /// Airtime of one tag's slot (query + turnaround + burst + guard).
    [[nodiscard]] double slot_duration_s() const;

    /// Polling order of a weighted cycle for degraded-mode scheduling: each
    /// tag appears `slots` times, round-robin interleaved (repeatedly sweeps
    /// the share list in order, emitting one slot per tag with allocation
    /// left, until every share is exhausted). A tag holding reallocated slots
    /// thus spreads across the cycle instead of monopolizing a contiguous
    /// stretch, which keeps per-round access latency bounded for every
    /// healthy tag. Deterministic in the input order (the caller rotates the
    /// list for fairness across rounds).
    [[nodiscard]] static std::vector<std::uint32_t> interleave_shares(
        const std::vector<slot_share>& shares);

    /// Steady-state metrics for `tag_count` tags sharing the channel.
    [[nodiscard]] tdma_metrics metrics(std::size_t tag_count) const;

private:
    tdma_config cfg_;
};

} // namespace mmtag::mac
