#include "mmtag/fec/convolutional.hpp"

#include <array>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

namespace mmtag::fec {

namespace {

// K=7 (133, 171) octal generators; 64 trellis states.
constexpr unsigned constraint = 7;
constexpr unsigned state_bits = constraint - 1;
constexpr unsigned state_count = 1u << state_bits;
constexpr unsigned state_mask = state_count - 1;
constexpr unsigned g0 = 0133; // 0b1'011'011
constexpr unsigned g1 = 0171; // 0b1'111'001

/// branch_label[state][input] = (c0 << 1) | c1, the output pair the encoder
/// emits for `input` in `state`. State holds the previous `state_bits` inputs
/// with the most recent in the MSB.
constexpr auto branch_label = [] {
    std::array<std::array<std::uint8_t, 2>, state_count> table{};
    for (unsigned state = 0; state < state_count; ++state) {
        for (unsigned input = 0; input <= 1; ++input) {
            const unsigned window = (input << state_bits) | state;
            table[state][input] = static_cast<std::uint8_t>(
                ((std::popcount(window & g0) & 1) << 1) | (std::popcount(window & g1) & 1));
        }
    }
    return table;
}();

constexpr unsigned next_state(unsigned input, unsigned state)
{
    return ((input << state_bits) | state) >> 1;
}

/// One puncturing period of the flattened c0/c1 stream: of every `period`
/// flat bits, those whose bit is set in `kept_mask` are sent.
struct puncture_pattern {
    unsigned period;
    unsigned kept_mask;

    [[nodiscard]] bool is_kept(std::size_t flat_index) const
    {
        return (kept_mask >> (flat_index % period)) & 1u;
    }
    /// Kept bits among the first `offset` (<= period) flat bits of a period.
    [[nodiscard]] unsigned kept_before(unsigned offset) const
    {
        return static_cast<unsigned>(std::popcount(kept_mask & ((1u << offset) - 1)));
    }
};

puncture_pattern pattern_of(code_rate rate)
{
    switch (rate) {
    case code_rate::half: return {2, 0b11};
    case code_rate::two_thirds: return {4, 0b0111};
    case code_rate::three_quarters: return {6, 0b10'0111};
    }
    throw std::invalid_argument("convolutional: unknown code rate");
}

std::size_t punctured_length(code_rate rate, std::size_t flat_length)
{
    const puncture_pattern pattern = pattern_of(rate);
    return pattern.kept_before(pattern.period) * (flat_length / pattern.period) +
           pattern.kept_before(static_cast<unsigned>(flat_length % pattern.period));
}

/// Flat (unpunctured) length whose punctured size is `punctured`. Flat
/// lengths are whole bit pairs, so a period's remainder can only end at an
/// even offset; a punctured length no such offset produces is rejected.
std::size_t infer_flat_length(code_rate rate, std::size_t punctured)
{
    const puncture_pattern pattern = pattern_of(rate);
    const unsigned kept = pattern.kept_before(pattern.period);
    for (unsigned offset = 0; offset < pattern.period; offset += 2) {
        if (pattern.kept_before(offset) == punctured % kept) {
            return pattern.period * (punctured / kept) + offset;
        }
    }
    throw std::invalid_argument("viterbi: input length inconsistent with code rate");
}

/// Viterbi search over `coded` punctured values, read through `soft_at(i)`
/// and depunctured on the fly (a punctured position is an erasure, 0.0).
/// Sign convention: soft > 0 means bit 0, soft < 0 means bit 1.
///
/// Each step stores one decision word: bit `to` is set when state `to` was
/// reached from its odd predecessor `(to << 1) & 63 | 1` rather than the even
/// one. The even predecessor wins ties, and a candidate that is -inf or NaN
/// never beats an unreached state's -inf (DESIGN.md §9).
template <class SoftAt>
std::vector<std::uint8_t> viterbi(std::size_t coded, code_rate rate, SoftAt soft_at)
{
    const std::size_t steps = infer_flat_length(rate, coded) / 2;
    if (steps < state_bits) {
        throw std::invalid_argument("viterbi: stream shorter than the trellis tail");
    }
    const puncture_pattern pattern = pattern_of(rate);

    constexpr double negative_infinity = -std::numeric_limits<double>::infinity();
    std::array<double, state_count> metric_store[2]{};
    metric_store[0].fill(negative_infinity);
    metric_store[0][0] = 0.0;
    double* metric = metric_store[0].data();
    double* next_metric = metric_store[1].data();
    std::vector<std::uint64_t> decisions(steps);

    std::size_t read = 0;
    unsigned phase = 0; // flat index of this step's c0 within the period
    for (std::size_t t = 0; t < steps; ++t) {
        const double soft0 = (pattern.kept_mask >> phase) & 1u ? soft_at(read++) : 0.0;
        const double soft1 = (pattern.kept_mask >> (phase + 1)) & 1u ? soft_at(read++) : 0.0;
        phase = phase + 2 == pattern.period ? 0 : phase + 2;
        // Correlation metric per branch label: +|soft| when the hypothesis
        // matches the observed sign, -|soft| otherwise, 0 for erasures.
        const double branch[4] = {soft0 + soft1, soft0 + -soft1, -soft0 + soft1,
                                  -soft0 + -soft1};
        // Butterfly: states 2j and 2j+1 lead to j (input 0) and j+32 (input 1).
        // Fully unrolled, every branch_label lookup is a constant, which makes
        // this loop ~1.4x faster than the rolled one.
        std::uint64_t decision = 0;
#pragma GCC unroll 32
        for (unsigned j = 0; j < state_count / 2; ++j) {
            const double from_even = metric[2 * j];
            const double from_odd = metric[2 * j + 1];
            for (unsigned input = 0; input <= 1; ++input) {
                const unsigned to = (input << (state_bits - 1)) | j;
                const double via_even = from_even + branch[branch_label[2 * j][input]];
                const double via_odd = from_odd + branch[branch_label[2 * j + 1][input]];
                const double best_even =
                    via_even > negative_infinity ? via_even : negative_infinity;
                const bool odd_wins = via_odd > best_even;
                next_metric[to] = odd_wins ? via_odd : best_even;
                decision |= std::uint64_t{odd_wins} << to;
            }
        }
        decisions[t] = decision;
        std::swap(metric, next_metric);
    }

    // The encoder appends zeros, so the terminated trellis ends in state 0.
    // The last `state_bits` inputs are that tail and are not returned.
    std::vector<std::uint8_t> decoded(steps - state_bits);
    unsigned state = 0;
    for (std::size_t t = steps; t-- > 0;) {
        if (t < decoded.size()) decoded[t] = static_cast<std::uint8_t>(state >> (state_bits - 1));
        state = ((state << 1) & state_mask) | ((decisions[t] >> state) & 1u);
    }
    return decoded;
}

} // namespace

std::vector<std::uint8_t> convolutional_encode(std::span<const std::uint8_t> bits, code_rate rate)
{
    const puncture_pattern pattern = pattern_of(rate);
    std::vector<std::uint8_t> out;
    out.reserve(coded_length(bits.size(), rate));
    std::size_t flat_index = 0;
    unsigned state = 0;
    auto push = [&](unsigned input) {
        const unsigned label = branch_label[state][input];
        if (pattern.is_kept(flat_index++)) out.push_back(static_cast<std::uint8_t>(label >> 1));
        if (pattern.is_kept(flat_index++)) out.push_back(static_cast<std::uint8_t>(label & 1u));
        state = next_state(input, state);
    };
    for (std::uint8_t bit : bits) push(bit & 1u);
    for (unsigned i = 0; i < state_bits; ++i) push(0); // terminate the trellis
    return out;
}

std::vector<std::uint8_t> viterbi_decode(std::span<const std::uint8_t> coded_bits, code_rate rate)
{
    return viterbi(coded_bits.size(), rate,
                   [coded_bits](std::size_t i) { return (coded_bits[i] & 1u) ? -1.0 : 1.0; });
}

std::vector<std::uint8_t> viterbi_decode_soft(std::span<const double> soft_bits, code_rate rate)
{
    return viterbi(soft_bits.size(), rate, [soft_bits](std::size_t i) { return soft_bits[i]; });
}

std::size_t coded_length(std::size_t info_bits, code_rate rate)
{
    return punctured_length(rate, 2 * (info_bits + state_bits));
}

} // namespace mmtag::fec
