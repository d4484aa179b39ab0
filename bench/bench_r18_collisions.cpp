// R18 — Sample-level collisions and capture (extension).
// Two tags share one capture window with increasing slot overlap; then a
// fixed full collision with growing power disparity. Expected shape: clean
// separation decodes both; any substantial overlap between equal-power tags
// destroys both (what the slotted-ALOHA model assumes); a strong/weak pair
// exhibits capture — the near tag survives the collision.
#include "experiments.hpp"
#include "mmtag/core/multitag_simulator.hpp"
#include "mmtag/phy/bitio.hpp"

using namespace mmtag;

cli::outcome bench::r18_collisions(const bench::bench_options& opts)
{
    const bool csv = opts.csv;

    const auto base = core::fast_scenario();

    if (!csv) std::printf("Equal-power tags (both at 2 m), varying slot overlap:\n");
    bench::table overlap_table({"overlap_pct", "tag0_ok", "tag1_ok"}, csv);
    for (double overlap : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        std::vector<core::tag_descriptor> tags{{0, 2.0, 0.0}, {1, 2.0, 0.0}};
        core::multitag_simulator sim(base, tags);
        const double duration = sim.burst_duration_s(24);
        const double start1 = duration * (1.0 - overlap) + (overlap >= 1.0 ? 0.0 : 20e-6);
        const auto outcomes = sim.run({{0, phy::random_bytes(24, 1), 0.0},
                                       {1, phy::random_bytes(24, 2), start1}});
        overlap_table.add_row({bench::fmt("%.0f", overlap * 100.0),
                               outcomes[0].delivered ? "yes" : "no",
                               outcomes[1].delivered ? "yes" : "no"});
    }
    overlap_table.print();

    if (!csv) std::printf("\nFull collision, tag 0 fixed at 1.5 m, tag 1 moving away:\n");
    bench::table capture_table({"tag1_distance_m", "power_gap_dB", "near_ok", "far_ok"},
                               csv);
    for (double far : {1.5, 2.0, 3.0, 4.0, 6.0}) {
        std::vector<core::tag_descriptor> tags{{0, 1.5, 0.0}, {1, far, 0.0}};
        core::multitag_simulator sim(base, tags);
        const auto outcomes = sim.run({{0, phy::random_bytes(24, 3), 0.0},
                                       {1, phy::random_bytes(24, 4), 0.0}});
        const double gap_db = 40.0 * std::log10(far / 1.5);
        capture_table.add_row({bench::fmt("%.1f", far), bench::fmt("%.1f", gap_db),
                               outcomes[0].delivered ? "yes" : "no",
                               outcomes[1].delivered ? "yes" : "no"});
    }
    capture_table.print();
    return {};
}
