// R1 — Van Atta retro-reflection pattern.
// Reproduces the "tag reflects toward the AP at any orientation" figure:
// monostatic backscatter gain vs incidence angle for 4/8/16-element Van Atta
// arrays, against the same aperture without pairing (flat plate). Expected
// shape: Van Atta curves stay within a few dB of their peak across a wide
// field of view (element-pattern limited); the plate collapses off broadside.
#include <memory>

#include "experiments.hpp"
#include "mmtag/antenna/element.hpp"
#include "mmtag/antenna/van_atta.hpp"

using namespace mmtag;

cli::outcome bench::r01_van_atta_pattern(const bench::bench_options& opts)
{
    const bool csv = opts.csv;

    const auto patch = std::make_shared<antenna::patch_element>();
    auto make_array = [&](std::size_t n) {
        antenna::van_atta_array::config cfg;
        cfg.element_count = n;
        cfg.line_loss_db = 1.0;
        return antenna::van_atta_array(cfg, patch);
    };
    const antenna::van_atta_array va4 = make_array(4);
    const antenna::van_atta_array va8 = make_array(8);
    const antenna::van_atta_array va16 = make_array(16);
    const antenna::flat_plate_reflector plate(8, 0.5, patch);

    bench::table out({"angle_deg", "van_atta_4_dB", "van_atta_8_dB", "van_atta_16_dB",
                      "flat_plate_8_dB"},
                     csv);
    auto db_or_floor = [](double gain) {
        return gain > 1e-9 ? to_db(gain) : -90.0;
    };
    for (int deg = -60; deg <= 60; deg += 5) {
        const double theta = deg_to_rad(static_cast<double>(deg));
        out.add_row({std::to_string(deg),
                     bench::fmt("%.1f", db_or_floor(va4.monostatic_gain(theta))),
                     bench::fmt("%.1f", db_or_floor(va8.monostatic_gain(theta))),
                     bench::fmt("%.1f", db_or_floor(va16.monostatic_gain(theta))),
                     bench::fmt("%.1f", db_or_floor(plate.monostatic_gain(theta)))});
    }
    out.print();

    if (!csv) {
        std::printf("\n3 dB field of view: N=4: %.0f deg, N=8: %.0f deg, N=16: %.0f deg\n",
                    rad_to_deg(va4.field_of_view(3.0)), rad_to_deg(va8.field_of_view(3.0)),
                    rad_to_deg(va16.field_of_view(3.0)));
    }
    return {};
}
