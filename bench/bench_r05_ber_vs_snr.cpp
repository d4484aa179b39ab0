// R5 — BER vs Eb/N0 per modulation against theory.
// Symbol-level AWGN sweep of the exact mapper/demapper the tag and AP use.
// Expected shape: simulated points sit on the closed-form curves (exact for
// BPSK/QPSK, tight union bound for 8/16-PSK), validating the demodulator and
// calibrating every downstream BER claim.
//
// Runs on the parallel Monte-Carlo runtime: the bit budget of each
// (modulation, Eb/N0) point is split into counter-seeded chunks merged into
// one core::error_counter in trial order — bit-identical for any --jobs.
#include <cmath>
#include <random>

#include "experiments.hpp"
#include "mmtag/core/metrics.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/phy/modulation.hpp"
#include "mmtag/runtime/sweep_runner.hpp"

using namespace mmtag;

namespace {

struct sweep_cell {
    phy::modulation scheme;
    double ebn0_db;
    double theory;
    std::size_t bits_target;
};

/// One Monte-Carlo chunk: ~`bits` decided symbols under AWGN at the cell's
/// operating point, all randomness drawn from the chunk's counter seed.
core::error_counter simulate_chunk(const sweep_cell& cell, std::size_t bits,
                                   std::uint64_t seed)
{
    const std::size_t k = phy::bits_per_symbol(cell.scheme);
    const double es_n0 = from_db(cell.ebn0_db) * static_cast<double>(k);
    const double noise_sigma = std::sqrt(0.5 / es_n0); // unit-energy symbols
    std::mt19937_64 rng(runtime::substream(seed, 0));
    std::normal_distribution<double> gaussian(0.0, noise_sigma);

    core::error_counter errors;
    std::size_t block = 0;
    while (errors.bits() < bits) {
        const auto payload =
            phy::random_bits(3000 * k, runtime::substream(seed, 1 + block++));
        cvec symbols = phy::map_bits(payload, cell.scheme);
        for (auto& s : symbols) s += cf64{gaussian(rng), gaussian(rng)};
        const auto decided = phy::demap_hard(symbols, cell.scheme);
        errors.add_bits(payload.size(), phy::hamming_distance(decided, payload));
    }
    return errors;
}

} // namespace

cli::outcome bench::r05_ber_vs_snr(const bench::bench_options& opts)
{
    constexpr std::size_t kChunks = 8; // trials per sweep point
    std::vector<sweep_cell> cells;
    for (auto scheme : {phy::modulation::bpsk, phy::modulation::qpsk, phy::modulation::psk8,
                        phy::modulation::psk16}) {
        for (double ebn0 = 0.0; ebn0 <= 14.0; ebn0 += 2.0) {
            const double theory = phy::theoretical_ber(scheme, ebn0);
            if (theory < 1e-7) continue; // beyond affordable sample counts
            const std::size_t bits = theory > 1e-3 ? 120'000 : 1'200'000;
            cells.push_back({scheme, ebn0, theory, bits});
        }
    }

    runtime::sweep_options sweep;
    sweep.jobs = opts.jobs;
    sweep.base_seed = opts.seed;
    sweep.trials_per_point = kChunks;
    sweep.progress = runtime::stderr_progress();

    const auto outcome = runtime::run_sweep<core::error_counter>(
        sweep, cells.size(), [&](std::size_t point, std::size_t, std::uint64_t seed) {
            return simulate_chunk(cells[point], cells[point].bits_target / kChunks, seed);
        });

    runtime::result_writer results(opts.id, opts.title, {"ebn0_db", "modulation"}, opts.seed);
    bench::table out({"ebn0_dB", "modulation", "simulated", "ci95", "theory"}, opts.csv);
    for (std::size_t point = 0; point < cells.size(); ++point) {
        const auto& cell = cells[point];
        const auto& errors = outcome.points[point].aggregate;
        out.add_row({bench::fmt("%.0f", cell.ebn0_db), phy::modulation_name(cell.scheme),
                     bench::fmt("%.2e", errors.ber()),
                     bench::fmt("%.1e", errors.ber_confidence()),
                     bench::fmt("%.2e", cell.theory)});
        auto axis = runtime::json_value::object();
        axis.set("ebn0_db", runtime::json_value::number(cell.ebn0_db));
        axis.set("modulation",
                 runtime::json_value::string(phy::modulation_name(cell.scheme)));
        auto metrics = runtime::result_writer::metrics(errors);
        metrics.set("theory_ber", runtime::json_value::number(cell.theory));
        results.add_point(std::move(axis), kChunks, std::move(metrics));
    }
    out.print();
    return {.document = results.to_json(), .tasks = outcome.trials, .jobs = outcome.jobs};
}
