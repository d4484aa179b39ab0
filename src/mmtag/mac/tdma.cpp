#include "mmtag/mac/tdma.hpp"

#include <stdexcept>

namespace mmtag::mac {

tdma_scheduler::tdma_scheduler(const tdma_config& cfg) : cfg_(cfg)
{
    if (cfg.phy_rate_bps <= 0.0) throw std::invalid_argument("tdma: phy rate must be > 0");
    if (cfg.frame_payload_bytes == 0) throw std::invalid_argument("tdma: empty payload");
    if (cfg.turnaround_s < 0.0) throw std::invalid_argument("tdma: negative turnaround");
}

double tdma_scheduler::slot_duration_s() const
{
    const double payload_bits = static_cast<double>(cfg_.frame_payload_bytes) * 8.0;
    const double burst_s =
        (payload_bits + static_cast<double>(cfg_.overhead_bits)) / cfg_.phy_rate_bps;
    return cfg_.query_time_s + cfg_.turnaround_s + burst_s + cfg_.guard_time_s;
}

std::vector<std::uint32_t> tdma_scheduler::interleave_shares(
    const std::vector<slot_share>& shares)
{
    std::size_t remaining = 0;
    for (const auto& share : shares) remaining += share.slots;
    std::vector<std::uint32_t> order;
    order.reserve(remaining);
    std::vector<std::size_t> left(shares.size());
    for (std::size_t i = 0; i < shares.size(); ++i) left[i] = shares[i].slots;
    while (remaining > 0) {
        for (std::size_t i = 0; i < shares.size(); ++i) {
            if (left[i] == 0) continue;
            order.push_back(shares[i].tag_id);
            --left[i];
            --remaining;
        }
    }
    return order;
}

tdma_metrics tdma_scheduler::metrics(std::size_t tag_count) const
{
    if (tag_count == 0) throw std::invalid_argument("tdma: tag_count must be >= 1");
    tdma_metrics m;
    const double slot = slot_duration_s();
    m.cycle_time_s = slot * static_cast<double>(tag_count);
    const double payload_bits = static_cast<double>(cfg_.frame_payload_bytes) * 8.0;
    m.per_tag_goodput_bps = payload_bits / m.cycle_time_s;
    m.aggregate_goodput_bps = payload_bits / slot;
    return m;
}

} // namespace mmtag::mac
