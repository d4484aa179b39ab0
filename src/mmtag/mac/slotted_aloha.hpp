// Framed slotted ALOHA inventory with Q-style frame-size adaptation — how the
// AP discovers an unknown tag population before switching to scheduled TDMA.
// Each round the AP broadcasts a query advertising 2^Q slots; every
// unidentified tag picks one uniformly and backscatters its ID there. Singleton
// slots identify a tag; collisions and idles drive Q up or down.
#pragma once

#include <cstddef>
#include <random>
#include <vector>

namespace mmtag::mac {

struct aloha_config {
    unsigned initial_q = 4;
    unsigned min_q = 0;
    unsigned max_q = 12;
    /// Probability that a singleton slot actually decodes (PHY success).
    double singleton_success = 0.98;
    std::size_t max_rounds = 64;
};

struct inventory_stats {
    std::size_t tags_total = 0;
    std::size_t tags_identified = 0;
    std::size_t rounds = 0;
    std::size_t slots_used = 0;
    std::size_t singleton_slots = 0;
    std::size_t collision_slots = 0;
    std::size_t idle_slots = 0;

    [[nodiscard]] bool complete() const { return tags_identified == tags_total; }
    /// Slot efficiency: identified tags per slot spent.
    [[nodiscard]] double efficiency() const;
};

class aloha_inventory {
public:
    explicit aloha_inventory(const aloha_config& cfg = {});

    /// Inventories `tag_count` tags; deterministic for a given seed.
    [[nodiscard]] inventory_stats run(std::size_t tag_count, std::uint64_t seed) const;

    /// Expected slot efficiency of framed slotted ALOHA at the optimum
    /// (frame size == population): n/L * (1-1/L)^(n-1) with L == n.
    [[nodiscard]] static double theoretical_peak_efficiency(std::size_t tag_count);

private:
    aloha_config cfg_;
};

} // namespace mmtag::mac
