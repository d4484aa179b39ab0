// R11 — Tag power and energy-per-bit table.
// The headline claim of mmWave backscatter: communication at nJ/bit while an
// active mmWave radio burns 10-100x more. Reports per-mode tag power, nJ/bit
// across data rates (anchor: the 2.4 nJ/bit figure cited for mmTag), and the
// comparison against the component-budget active radio and a phased-array
// tag.
#include "experiments.hpp"
#include "mmtag/core/baselines.hpp"
#include "mmtag/tag/energy_model.hpp"

using namespace mmtag;

cli::outcome bench::r11_energy(const bench::bench_options& opts)
{
    const bool csv = opts.csv;

    const tag::energy_model model;

    if (!csv) std::printf("Tag power by mode:\n");
    bench::table modes({"mode", "power_mW"}, csv);
    modes.add_row({"sleep", bench::fmt("%.4f", model.sleep_power_w() * 1e3)});
    modes.add_row({"listen", bench::fmt("%.3f", model.listen_power_w() * 1e3)});
    modes.add_row({"uplink @ 2.5 Msym/s",
                   bench::fmt("%.1f", model.transmit_power_w(2.5e6, 0.75) * 1e3)});
    modes.add_row({"uplink @ 5 Msym/s",
                   bench::fmt("%.1f", model.transmit_power_w(5e6, 0.75) * 1e3)});
    modes.add_row({"uplink @ 25 Msym/s",
                   bench::fmt("%.1f", model.transmit_power_w(25e6, 0.75) * 1e3)});
    modes.print();

    if (!csv) std::printf("\nEnergy per bit vs data rate (QPSK uncoded):\n");
    bench::table energy({"data_rate_Mbps", "tag_power_mW", "energy_nJ_per_bit"}, csv);
    phy::frame_config frame;
    frame.scheme = phy::modulation::qpsk;
    frame.fec = phy::fec_mode::uncoded;
    for (double rate_mbps : {1.0, 5.0, 10.0, 20.0, 40.0, 100.0}) {
        const double symbol_rate = rate_mbps * 1e6 / 2.0; // 2 bits/symbol
        energy.add_row({bench::fmt("%.0f", rate_mbps),
                        bench::fmt("%.1f", model.transmit_power_w(symbol_rate, 0.75) * 1e3),
                        bench::fmt("%.2f", model.energy_per_bit(frame, symbol_rate) * 1e9)});
    }
    energy.print();

    if (!csv) std::printf("\nComparison points:\n");
    bench::table cmp({"system", "power_mW", "nJ_per_bit", "notes"}, csv);
    cmp.add_row({"this work @ 10 Mbps",
                 bench::fmt("%.1f", model.transmit_power_w(5e6, 0.75) * 1e3),
                 bench::fmt("%.2f", model.energy_per_bit(frame, 5e6) * 1e9),
                 "QPSK load modulation"});
    const core::active_radio_model radio{};
    cmp.add_row({"active mmWave radio", bench::fmt("%.0f", radio.total_power_w() * 1e3),
                 bench::fmt("%.2f", radio.energy_per_bit(100e6) * 1e9),
                 "component budget, 100 Mbps"});
    const core::phased_array_tag_model array{};
    cmp.add_row({"phased-array tag (hypothetical)",
                 bench::fmt("%.0f", array.total_power_w() * 1e3), "-",
                 "steering power alone"});
    for (const auto& ref : core::literature_energy_points()) {
        cmp.add_row({ref.name, "-", bench::fmt("%.2f", ref.energy_per_bit_j * 1e9),
                     ref.notes});
    }
    cmp.print();
    return {};
}
