// Sample-accurate inventory: the framed-slotted-ALOHA discovery protocol run
// over real superposed RF instead of the slot-level abstraction. Each round,
// every unidentified tag draws a slot and backscatters its ID frame there;
// collisions corrupt at the waveform level (no collision oracle), singleton
// slots decode through the full receiver. This is the ground truth the
// mac::aloha_inventory model is validated against.
#pragma once

#include <cstdint>
#include <vector>

#include "mmtag/core/multitag_simulator.hpp"

namespace mmtag::core {

struct sampled_inventory_config {
    unsigned slot_exponent = 2; ///< 2^Q slots per round
    std::size_t max_rounds = 8;
};

struct sampled_inventory_result {
    std::size_t tags_total = 0;
    std::size_t rounds = 0;
    std::size_t slots_used = 0;
    std::size_t collision_slots = 0;
    std::size_t idle_slots = 0;
    std::vector<std::uint32_t> identified_ids;

    [[nodiscard]] bool complete() const { return identified_ids.size() == tags_total; }
};

/// Runs sampled inventory over `tags` until everyone is identified or
/// `max_rounds` elapse. A tag counts as identified when the AP decodes a
/// frame whose payload is exactly that tag's 4-byte big-endian ID.
[[nodiscard]] sampled_inventory_result run_sampled_inventory(
    const system_config& base, const std::vector<tag_descriptor>& tags,
    const sampled_inventory_config& cfg, std::uint64_t seed);

} // namespace mmtag::core
