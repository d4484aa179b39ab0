// R15 — Line-code trade study (extension).
// FM0/Miller subcarrier coding buys spectral distance from the DC
// self-interference at the price of more switch transitions (energy).
// Expected shape: in-band-at-DC power drops orders of magnitude from NRZ to
// Miller-4 while transitions/bit (and hence tag power) grow ~linearly with
// the subcarrier order.
#include "experiments.hpp"
#include "mmtag/phy/line_code.hpp"
#include "mmtag/tag/energy_model.hpp"

using namespace mmtag;

cli::outcome bench::r15_line_codes(const bench::bench_options& opts)
{
    const bool csv = opts.csv;

    const tag::energy_model model;
    const double bit_rate = 5e6;

    bench::table out({"code", "chips_per_bit", "dc_band_power", "transitions_per_bit",
                      "tag_power_mW", "nJ_per_bit"},
                     csv);
    for (auto code : {phy::line_code::nrz, phy::line_code::fm0, phy::line_code::miller2,
                      phy::line_code::miller4}) {
        const double transitions = phy::transitions_per_bit(code);
        // Switch toggles at transitions * bit rate; symbol clock = chip rate.
        const double power =
            model.transmit_power_w(bit_rate, transitions); // transitions per "bit symbol"
        out.add_row({phy::line_code_name(code), std::to_string(phy::chips_per_bit(code)),
                     bench::fmt("%.2e", phy::dc_power_fraction(code, 0.01)),
                     bench::fmt("%.2f", transitions), bench::fmt("%.1f", power * 1e3),
                     bench::fmt("%.2f", power / bit_rate * 1e9)});
    }
    out.print();

    if (!csv) {
        std::printf("\nDC band = +-1%% of the chip rate, random data. NRZ parks its\n"
                    "spectrum on the canceller; Miller-4 moves it 4 bit-rates away.\n");
    }
    return {};
}
