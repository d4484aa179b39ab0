// R2 — Constellation / EVM microbenchmark.
// One frame per modulation through the full chain at 2 m; reports the EVM of
// the normalized received constellation and a coarse ASCII scatter of the
// payload symbols. Expected shape: all schemes produce tight clusters at
// short range; EVM grows slightly with constellation order (load-modulation
// stub loss + switch leakage), matching the paper's clean "symbols separate
// cleanly" microbenchmark.
#include "bench_util.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/phy/bitio.hpp"

using namespace mmtag;

namespace {

void ascii_scatter(const cvec& symbols)
{
    constexpr int size = 21;
    char grid[size][size];
    for (auto& row : grid) std::fill(std::begin(row), std::end(row), ' ');
    for (const auto& s : symbols) {
        const int x = static_cast<int>(std::lround((s.real() + 1.5) / 3.0 * (size - 1)));
        const int y = static_cast<int>(std::lround((1.5 - s.imag()) / 3.0 * (size - 1)));
        if (x >= 0 && x < size && y >= 0 && y < size) grid[y][x] = '*';
    }
    grid[size / 2][size / 2] = grid[size / 2][size / 2] == '*' ? '*' : '+';
    for (const auto& row : grid) std::printf("    %.*s\n", size, row);
}

} // namespace

int main(int argc, char** argv)
{
    const auto opts = bench::bench_options::parse(argc, argv);
    const bool csv = opts.csv;
    bench::banner("R2", "received constellations and EVM through the full chain", csv);

    bench::table out({"modulation", "snr_dB", "evm_dB", "evm_pct", "crc"}, csv);
    for (auto scheme : {phy::modulation::bpsk, phy::modulation::qpsk, phy::modulation::psk8,
                        phy::modulation::psk16}) {
        auto cfg = core::fast_scenario();
        cfg.modulator.frame.scheme = scheme;
        cfg.modulator.frame.fec = phy::fec_mode::uncoded;
        cfg.receiver.frame = cfg.modulator.frame;
        core::link_simulator sim(cfg);
        const auto result = sim.run_frame(phy::random_bytes(64, 2));
        const double evm_pct = 100.0 * std::pow(10.0, result.rx.evm_db / 20.0);
        out.add_row({phy::modulation_name(scheme), bench::fmt("%.1f", result.rx.snr_db),
                     bench::fmt("%.1f", result.rx.evm_db), bench::fmt("%.2f", evm_pct),
                     result.rx.crc_ok ? "ok" : "FAIL"});
        if (!csv && scheme == phy::modulation::psk8 && !result.rx.symbols.empty()) {
            std::printf("  8-PSK received constellation (normalized symbols):\n");
            // Payload region only: skip preamble/header worth of symbols.
            const std::size_t start =
                std::min<std::size_t>(160, result.rx.symbols.size());
            cvec payload(result.rx.symbols.begin() + static_cast<std::ptrdiff_t>(start),
                         result.rx.symbols.end());
            ascii_scatter(payload);
        }
    }
    out.print();
    return 0;
}
