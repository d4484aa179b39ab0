#include "mmtag/fec/scrambler.hpp"

#include <stdexcept>

namespace mmtag::fec {

scrambler::scrambler(std::uint8_t seed) : state_(seed & 0x7F)
{
    if (state_ == 0) throw std::invalid_argument("scrambler: seed must be nonzero mod 2^7");
}

std::vector<std::uint8_t> scrambler::process(std::span<const std::uint8_t> bits)
{
    std::vector<std::uint8_t> out;
    out.reserve(bits.size());
    for (std::uint8_t bit : bits) {
        // Feedback taps x^7 and x^4 of the 7-bit register.
        const std::uint8_t feedback =
            static_cast<std::uint8_t>(((state_ >> 6) ^ (state_ >> 3)) & 1u);
        state_ = static_cast<std::uint8_t>(((state_ << 1) | feedback) & 0x7F);
        out.push_back(static_cast<std::uint8_t>((bit ^ feedback) & 1u));
    }
    return out;
}

std::vector<std::uint8_t> scramble_bytes(std::span<const std::uint8_t> bytes, std::uint8_t seed)
{
    scrambler whitener(seed);
    std::vector<std::uint8_t> bits;
    bits.reserve(bytes.size() * 8);
    for (std::uint8_t byte : bytes) {
        for (int bit = 7; bit >= 0; --bit) {
            bits.push_back(static_cast<std::uint8_t>((byte >> bit) & 1u));
        }
    }
    const std::vector<std::uint8_t> whitened = whitener.process(bits);
    std::vector<std::uint8_t> out(bytes.size(), 0);
    for (std::size_t i = 0; i < whitened.size(); ++i) {
        out[i / 8] = static_cast<std::uint8_t>((out[i / 8] << 1) | whitened[i]);
    }
    return out;
}

} // namespace mmtag::fec
