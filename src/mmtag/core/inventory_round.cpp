#include "mmtag/core/inventory_round.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

namespace mmtag::core {

namespace {

/// Guard time appended to each slot beyond the burst airtime.
constexpr double slot_guard_s = 20e-6;

std::vector<std::uint8_t> id_payload(std::uint32_t id)
{
    return {static_cast<std::uint8_t>(id >> 24), static_cast<std::uint8_t>(id >> 16),
            static_cast<std::uint8_t>(id >> 8), static_cast<std::uint8_t>(id)};
}

} // namespace

sampled_inventory_result run_sampled_inventory(const system_config& base,
                                               const std::vector<tag_descriptor>& tags,
                                               const sampled_inventory_config& cfg,
                                               std::uint64_t seed)
{
    if (cfg.slot_exponent > 8) {
        throw std::invalid_argument("sampled inventory: slot_exponent must be <= 8");
    }
    if (cfg.max_rounds == 0) {
        throw std::invalid_argument("sampled inventory: max_rounds must be >= 1");
    }

    sampled_inventory_result result;
    result.tags_total = tags.size();

    multitag_simulator sim(base, tags);
    const double slot_s = sim.burst_duration_s(4) + slot_guard_s;
    const std::size_t slot_count = std::size_t{1} << cfg.slot_exponent;

    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> slot_dist(0, slot_count - 1);

    std::vector<std::size_t> remaining(tags.size());
    for (std::size_t i = 0; i < tags.size(); ++i) remaining[i] = i;

    for (std::size_t round = 0; round < cfg.max_rounds && !remaining.empty(); ++round) {
        ++result.rounds;
        result.slots_used += slot_count;

        // Every remaining tag draws a slot and queues its ID burst there.
        std::vector<tag_burst> bursts;
        std::vector<std::size_t> burst_tag;     // tag index per burst
        std::vector<std::size_t> slot_of_burst; // chosen slot per burst
        std::vector<std::size_t> occupancy(slot_count, 0);
        for (std::size_t tag_index : remaining) {
            const std::size_t slot = slot_dist(rng);
            ++occupancy[slot];
            bursts.push_back({tag_index, id_payload(tags[tag_index].id),
                              static_cast<double>(slot) * slot_s});
            burst_tag.push_back(tag_index);
            slot_of_burst.push_back(slot);
        }
        for (std::size_t slot = 0; slot < slot_count; ++slot) {
            if (occupancy[slot] == 0) ++result.idle_slots;
            else if (occupancy[slot] > 1) ++result.collision_slots;
        }

        // One shared capture; collisions happen in the waveform.
        const auto outcomes = sim.run(bursts);

        std::vector<std::size_t> still_remaining;
        for (std::size_t b = 0; b < outcomes.size(); ++b) {
            const std::size_t tag_index = burst_tag[b];
            if (outcomes[b].delivered) {
                result.identified_ids.push_back(tags[tag_index].id);
            } else {
                still_remaining.push_back(tag_index);
            }
        }
        remaining.swap(still_remaining);
    }
    std::sort(result.identified_ids.begin(), result.identified_ids.end());
    return result;
}

} // namespace mmtag::core
