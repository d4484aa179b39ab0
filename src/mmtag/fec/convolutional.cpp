#include "mmtag/fec/convolutional.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>

namespace mmtag::fec {

namespace {

// K=7 (133, 171) octal generators; 64 trellis states.
constexpr unsigned constraint = 7;
constexpr unsigned state_bits = constraint - 1;
constexpr unsigned state_count = 1u << state_bits;
constexpr unsigned g0 = 0133; // 0b1'011'011
constexpr unsigned g1 = 0171; // 0b1'111'001

/// Output pair for (input bit, state). State holds the previous `state_bits`
/// inputs with the most recent in the MSB.
std::array<std::uint8_t, 2> encoder_output(unsigned input, unsigned state)
{
    const unsigned window = (input << state_bits) | state;
    const auto c0 = static_cast<std::uint8_t>(std::popcount(window & g0) & 1);
    const auto c1 = static_cast<std::uint8_t>(std::popcount(window & g1) & 1);
    return {c0, c1};
}

unsigned next_state(unsigned input, unsigned state)
{
    return ((input << state_bits) | state) >> 1;
}

/// Kept positions within a puncturing period of the flattened c0/c1 stream.
bool is_kept(code_rate rate, std::size_t flat_index)
{
    switch (rate) {
    case code_rate::half:
        return true;
    case code_rate::two_thirds:
        return flat_index % 4 != 3;
    case code_rate::three_quarters: {
        const std::size_t m = flat_index % 6;
        return m == 0 || m == 1 || m == 2 || m == 5;
    }
    }
    throw std::invalid_argument("convolutional: unknown code rate");
}

std::size_t punctured_length(code_rate rate, std::size_t flat_length)
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < flat_length; ++i) {
        if (is_kept(rate, i)) ++kept;
    }
    return kept;
}

/// Core Viterbi over depunctured soft pairs. Sign convention: soft > 0 means
/// bit 0, soft < 0 means bit 1, soft == 0 means erasure.
std::vector<std::uint8_t> viterbi_core(std::span<const double> soft_pairs)
{
    if (soft_pairs.size() % 2 != 0) {
        throw std::invalid_argument("viterbi: coded stream must contain bit pairs");
    }
    const std::size_t steps = soft_pairs.size() / 2;
    if (steps < state_bits) {
        throw std::invalid_argument("viterbi: stream shorter than the trellis tail");
    }

    constexpr double negative_infinity = -std::numeric_limits<double>::infinity();
    std::vector<double> metric(state_count, negative_infinity);
    metric[0] = 0.0;
    std::vector<double> next_metric(state_count);
    // survivors[t][state] = input bit that led into `state` at step t plus the
    // predecessor encoded in one byte (bit0 = input, bits 1..6 = predecessor).
    std::vector<std::vector<std::uint8_t>> survivors(steps,
                                                     std::vector<std::uint8_t>(state_count, 0));

    for (std::size_t t = 0; t < steps; ++t) {
        std::fill(next_metric.begin(), next_metric.end(), negative_infinity);
        const double soft0 = soft_pairs[2 * t];
        const double soft1 = soft_pairs[2 * t + 1];
        for (unsigned state = 0; state < state_count; ++state) {
            if (metric[state] == negative_infinity) continue;
            for (unsigned input = 0; input <= 1; ++input) {
                const auto expected = encoder_output(input, state);
                // Correlation metric: +|soft| when the hypothesis matches the
                // observed sign, -|soft| otherwise, 0 for erasures.
                const double branch = (expected[0] ? -soft0 : soft0) +
                                      (expected[1] ? -soft1 : soft1);
                const unsigned to = next_state(input, state);
                const double candidate = metric[state] + branch;
                if (candidate > next_metric[to]) {
                    next_metric[to] = candidate;
                    survivors[t][to] =
                        static_cast<std::uint8_t>((state << 1) | input);
                }
            }
        }
        metric.swap(next_metric);
    }

    // The encoder appends zeros, so the terminated trellis ends in state 0.
    unsigned state = 0;
    std::vector<std::uint8_t> decoded(steps);
    for (std::size_t t = steps; t-- > 0;) {
        const std::uint8_t record = survivors[t][state];
        decoded[t] = record & 1u;
        state = record >> 1;
    }
    decoded.resize(steps - state_bits); // strip the termination tail
    return decoded;
}

std::vector<double> depuncture(std::span<const double> soft_bits, code_rate rate,
                               std::size_t flat_length)
{
    std::vector<double> full(flat_length, 0.0);
    std::size_t consumed = 0;
    for (std::size_t i = 0; i < flat_length; ++i) {
        if (!is_kept(rate, i)) continue;
        if (consumed >= soft_bits.size()) {
            throw std::invalid_argument("viterbi: punctured stream shorter than expected");
        }
        full[i] = soft_bits[consumed++];
    }
    if (consumed != soft_bits.size()) {
        throw std::invalid_argument("viterbi: punctured stream length does not match rate");
    }
    return full;
}

/// Finds the flat (unpunctured) length whose punctured size equals the input.
std::size_t infer_flat_length(code_rate rate, std::size_t punctured)
{
    // Flat length is always even (bit pairs); scan candidate lengths.
    for (std::size_t flat = 0; flat <= punctured * 2 + 8; flat += 2) {
        if (punctured_length(rate, flat) == punctured) return flat;
    }
    throw std::invalid_argument("viterbi: input length inconsistent with code rate");
}

} // namespace

double rate_fraction(code_rate rate)
{
    switch (rate) {
    case code_rate::half: return 0.5;
    case code_rate::two_thirds: return 2.0 / 3.0;
    case code_rate::three_quarters: return 0.75;
    }
    throw std::invalid_argument("rate_fraction: unknown code rate");
}

std::vector<std::uint8_t> convolutional_encode(std::span<const std::uint8_t> bits, code_rate rate)
{
    std::vector<std::uint8_t> flat;
    flat.reserve(2 * (bits.size() + state_bits));
    unsigned state = 0;
    auto push = [&](unsigned input) {
        const auto out = encoder_output(input, state);
        flat.push_back(out[0]);
        flat.push_back(out[1]);
        state = next_state(input, state);
    };
    for (std::uint8_t bit : bits) push(bit & 1u);
    for (unsigned i = 0; i < state_bits; ++i) push(0); // terminate the trellis
    std::vector<std::uint8_t> out;
    out.reserve(punctured_length(rate, flat.size()));
    for (std::size_t i = 0; i < flat.size(); ++i) {
        if (is_kept(rate, i)) out.push_back(flat[i]);
    }
    return out;
}

std::vector<std::uint8_t> viterbi_decode(std::span<const std::uint8_t> coded_bits, code_rate rate)
{
    std::vector<double> soft;
    soft.reserve(coded_bits.size());
    for (std::uint8_t bit : coded_bits) soft.push_back((bit & 1u) ? -1.0 : 1.0);
    return viterbi_decode_soft(soft, rate);
}

// viterbi_core is inlined here, and its add-compare-select loop dominates a
// coded link's CPU time. Its speed moves by ~10% with the loop's offset in a
// 64-byte line, so the alignment is pinned rather than left to the size of
// whatever code the linker places ahead of it.
[[gnu::aligned(64)]] std::vector<std::uint8_t>
viterbi_decode_soft(std::span<const double> soft_bits, code_rate rate)
{
    const std::size_t flat_length = infer_flat_length(rate, soft_bits.size());
    const std::vector<double> full = depuncture(soft_bits, rate, flat_length);
    return viterbi_core(full);
}

std::size_t coded_length(std::size_t info_bits, code_rate rate)
{
    return punctured_length(rate, 2 * (info_bits + state_bits));
}

} // namespace mmtag::fec
