// R20 — Waveform-level inventory vs the slot-level model (extension).
// Runs the framed-slotted-ALOHA discovery both ways: the mac-layer model
// (collision oracle) and the sample-accurate simulation where collisions are
// just superposed RF. Expected shape: rounds-to-complete and collision
// fractions agree — validating that the MAC abstraction used for the large
// population sweeps (R9/R10) is faithful to the physical layer.
#include "experiments.hpp"
#include "mmtag/core/inventory_round.hpp"
#include "mmtag/mac/slotted_aloha.hpp"

using namespace mmtag;

cli::outcome bench::r20_sampled_inventory(const bench::bench_options& opts)
{
    const bool csv = opts.csv;

    bench::table out({"tags", "slots", "sampled_rounds", "sampled_identified",
                      "sampled_collision_frac", "model_collision_frac"},
                     csv);
    for (std::size_t count : {2u, 4u, 6u, 8u}) {
        std::vector<core::tag_descriptor> tags;
        for (std::uint32_t i = 0; i < count; ++i) {
            tags.push_back({100 + i, 2.0 + 0.25 * static_cast<double>(i),
                            deg_to_rad(-8.0 + 3.0 * static_cast<double>(i))});
        }
        core::sampled_inventory_config cfg;
        cfg.slot_exponent = 2; // 4 slots per round
        cfg.max_rounds = 10;

        double sampled_rounds = 0.0;
        double sampled_identified = 0.0;
        double sampled_collisions = 0.0;
        double sampled_slots = 0.0;
        constexpr int trials = 4;
        for (int t = 0; t < trials; ++t) {
            const auto result = core::run_sampled_inventory(
                core::fast_scenario(), tags, cfg, 50 + static_cast<std::uint64_t>(t));
            sampled_rounds += static_cast<double>(result.rounds);
            sampled_identified += static_cast<double>(result.identified_ids.size());
            sampled_collisions += static_cast<double>(result.collision_slots);
            sampled_slots += static_cast<double>(result.slots_used);
        }

        // The slot-level model at the same fixed frame size.
        mac::aloha_config model_cfg;
        model_cfg.initial_q = 2;
        model_cfg.min_q = 2;
        model_cfg.max_q = 2;
        const mac::aloha_inventory model(model_cfg);
        double model_collisions = 0.0;
        double model_slots = 0.0;
        for (int t = 0; t < 50; ++t) {
            const auto stats = model.run(count, 900 + static_cast<std::uint64_t>(t));
            model_collisions += static_cast<double>(stats.collision_slots);
            model_slots += static_cast<double>(stats.slots_used);
        }

        out.add_row({std::to_string(count), "4/round",
                     bench::fmt("%.1f", sampled_rounds / trials),
                     bench::fmt("%.1f", sampled_identified / trials),
                     bench::fmt("%.3f", sampled_collisions / sampled_slots),
                     bench::fmt("%.3f", model_collisions / model_slots)});
    }
    out.print();
    return {};
}
