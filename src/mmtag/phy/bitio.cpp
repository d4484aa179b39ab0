#include "mmtag/phy/bitio.hpp"

#include <random>
#include <stdexcept>

namespace mmtag::phy {

std::vector<std::uint8_t> bytes_to_bits(std::span<const std::uint8_t> bytes)
{
    std::vector<std::uint8_t> bits;
    bits.reserve(bytes.size() * 8);
    for (std::uint8_t byte : bytes) {
        for (int bit = 7; bit >= 0; --bit) {
            bits.push_back(static_cast<std::uint8_t>((byte >> bit) & 1u));
        }
    }
    return bits;
}

std::vector<std::uint8_t> bits_to_bytes(std::span<const std::uint8_t> bits)
{
    if (bits.size() % 8 != 0) {
        throw std::invalid_argument("bits_to_bytes: length must be a multiple of 8");
    }
    std::vector<std::uint8_t> bytes(bits.size() / 8, 0);
    for (std::size_t i = 0; i < bits.size(); ++i) {
        bytes[i / 8] = static_cast<std::uint8_t>((bytes[i / 8] << 1) | (bits[i] & 1u));
    }
    return bytes;
}

std::size_t hamming_distance(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b)
{
    if (a.size() != b.size()) throw std::invalid_argument("hamming_distance: length mismatch");
    std::size_t distance = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if ((a[i] & 1u) != (b[i] & 1u)) ++distance;
    }
    return distance;
}

std::vector<std::uint8_t> random_bytes(std::size_t count, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> byte_dist(0, 255);
    std::vector<std::uint8_t> out(count);
    for (auto& byte : out) byte = static_cast<std::uint8_t>(byte_dist(rng));
    return out;
}

std::vector<std::uint8_t> random_bits(std::size_t count, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> bit_dist(0, 1);
    std::vector<std::uint8_t> out(count);
    for (auto& bit : out) bit = static_cast<std::uint8_t>(bit_dist(rng));
    return out;
}

} // namespace mmtag::phy
