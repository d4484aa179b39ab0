// R9 — Multi-tag inventory cost.
// Framed slotted ALOHA with Q adaptation discovering 1-200 tags. Expected
// shape: slots scale ~linearly in population (constant efficiency near the
// 1/e framed-ALOHA optimum); a lossy PHY inflates the slot count by ~1/p.
#include "experiments.hpp"
#include "mmtag/mac/slotted_aloha.hpp"

using namespace mmtag;

cli::outcome bench::r09_inventory(const bench::bench_options& opts)
{
    const bool csv = opts.csv;

    bench::table out({"tags", "slots", "rounds", "singles", "collisions", "idle",
                      "efficiency", "theory_peak"},
                     csv);
    // Average a few seeds so the table is stable.
    for (std::size_t tags : {1u, 2u, 5u, 10u, 20u, 50u, 100u, 200u}) {
        double slots = 0.0;
        double rounds = 0.0;
        double singles = 0.0;
        double collisions = 0.0;
        double idle = 0.0;
        double efficiency = 0.0;
        constexpr int seeds = 10;
        for (int s = 0; s < seeds; ++s) {
            const mac::aloha_inventory inventory{mac::aloha_config{}};
            const auto stats = inventory.run(tags, 1000 + static_cast<std::uint64_t>(s));
            slots += static_cast<double>(stats.slots_used);
            rounds += static_cast<double>(stats.rounds);
            singles += static_cast<double>(stats.singleton_slots);
            collisions += static_cast<double>(stats.collision_slots);
            idle += static_cast<double>(stats.idle_slots);
            efficiency += stats.efficiency();
        }
        out.add_row({std::to_string(tags), bench::fmt("%.0f", slots / seeds),
                     bench::fmt("%.1f", rounds / seeds), bench::fmt("%.0f", singles / seeds),
                     bench::fmt("%.0f", collisions / seeds), bench::fmt("%.0f", idle / seeds),
                     bench::fmt("%.3f", efficiency / seeds),
                     bench::fmt("%.3f", mac::aloha_inventory::theoretical_peak_efficiency(tags))});
    }
    out.print();
    return {};
}
