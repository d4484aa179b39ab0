// R7 — Orientation robustness: Van Atta vs single-aperture baseline.
// The tag rotates relative to the AP; the retro-reflective array keeps the
// link alive across the element pattern's field of view while the un-paired
// aperture (specular plate) dies within a few degrees of broadside. This is
// the design-justifying ablation for the passive retro-reflector.
#include "experiments.hpp"
#include "mmtag/core/link_simulator.hpp"

using namespace mmtag;

cli::outcome bench::r07_orientation(const bench::bench_options& opts)
{
    const bool csv = opts.csv;

    bench::table out({"rotation_deg", "van_atta_snr_dB", "van_atta_per", "plate_snr_dB",
                      "plate_per"},
                     csv);
    for (double deg : {0.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0}) {
        auto cfg = core::fast_scenario();
        cfg.tag_incidence_rad = deg_to_rad(deg);

        cfg.reflector = core::reflector_kind::van_atta;
        core::link_simulator retro(cfg);
        const auto retro_report = retro.run_trials(5, 32);

        cfg.reflector = core::reflector_kind::flat_plate;
        core::link_simulator plate(cfg);
        const auto plate_report = plate.run_trials(5, 32);

        out.add_row({bench::fmt("%.0f", deg), bench::fmt("%.1f", retro_report.mean_snr_db),
                     bench::fmt("%.2f", retro_report.per),
                     bench::fmt("%.1f", plate_report.mean_snr_db),
                     bench::fmt("%.2f", plate_report.per)});
    }
    out.print();
    return {};
}
