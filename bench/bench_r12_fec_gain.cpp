// R12 — FEC ablation: decoded BER vs Eb/N0 for uncoded and convolutional
// rates 1/2, 2/3, 3/4 (soft-decision Viterbi) over QPSK. Expected shape: the
// waterfall curves steepen and shift left with stronger coding; R=1/2 buys
// ~5 dB at 1e-4 over uncoded.
#include <random>

#include "bench_util.hpp"
#include "mmtag/fec/convolutional.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/phy/modulation.hpp"

using namespace mmtag;

namespace {

double coded_ber(phy::fec_mode mode, double ebn0_db, std::size_t info_bits,
                 std::uint64_t seed)
{
    // Per-info-bit energy: coded bits carry Eb * R each; QPSK carries two
    // coded bits per symbol at Es = 2 R Eb.
    const double rate = phy::fec_mode_rate(mode);
    const double es_n0 = 2.0 * rate * from_db(ebn0_db);
    const double noise_sigma = std::sqrt(0.5 / es_n0);
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> gaussian(0.0, noise_sigma);

    std::size_t errors = 0;
    std::size_t counted = 0;
    std::size_t block = 0;
    while (counted < info_bits) {
        const auto bits = phy::random_bits(2000, seed * 31 + block++);
        std::vector<std::uint8_t> coded;
        if (mode == phy::fec_mode::uncoded) {
            coded = bits;
        } else {
            const auto rate_enum = mode == phy::fec_mode::conv_half
                                       ? fec::code_rate::half
                                       : mode == phy::fec_mode::conv_two_thirds
                                             ? fec::code_rate::two_thirds
                                             : fec::code_rate::three_quarters;
            coded = fec::convolutional_encode(bits, rate_enum);
            cvec symbols = phy::map_bits(coded, phy::modulation::qpsk);
            for (auto& s : symbols) s += cf64{gaussian(rng), gaussian(rng)};
            const auto soft = phy::demap_soft(symbols, phy::modulation::qpsk,
                                              2.0 * noise_sigma * noise_sigma);
            std::vector<double> truncated(soft.begin(),
                                          soft.begin() +
                                              static_cast<std::ptrdiff_t>(coded.size()));
            const auto decoded = fec::viterbi_decode_soft(truncated, rate_enum);
            errors += phy::hamming_distance(decoded, bits);
            counted += bits.size();
            continue;
        }
        cvec symbols = phy::map_bits(coded, phy::modulation::qpsk);
        for (auto& s : symbols) s += cf64{gaussian(rng), gaussian(rng)};
        const auto decided = phy::demap_hard(symbols, phy::modulation::qpsk);
        errors += phy::hamming_distance(decided, bits);
        counted += bits.size();
    }
    return static_cast<double>(errors) / static_cast<double>(counted);
}

} // namespace

int main(int argc, char** argv)
{
    const auto opts = bench::bench_options::parse(argc, argv);
    const bool csv = opts.csv;
    bench::banner("R12", "decoded BER vs Eb/N0: uncoded vs convolutional rates", csv);

    bench::table out({"ebn0_dB", "uncoded", "conv_1_2", "conv_2_3", "conv_3_4"}, csv);
    for (double ebn0 = 1.0; ebn0 <= 9.0; ebn0 += 1.0) {
        std::vector<std::string> row{bench::fmt("%.0f", ebn0)};
        for (auto mode : {phy::fec_mode::uncoded, phy::fec_mode::conv_half,
                          phy::fec_mode::conv_two_thirds,
                          phy::fec_mode::conv_three_quarters}) {
            const std::size_t bits = ebn0 >= 6.0 ? 400'000 : 100'000;
            const double ber =
                coded_ber(mode, ebn0, bits, 7 + static_cast<unsigned>(ebn0 * 10));
            row.push_back(ber > 0.0 ? bench::fmt("%.2e", ber) : "<2.5e-06");
        }
        out.add_row(row);
    }
    out.print();
    return 0;
}
