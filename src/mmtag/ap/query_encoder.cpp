#include "mmtag/ap/query_encoder.hpp"

#include <stdexcept>

#include "mmtag/fec/crc.hpp"

namespace mmtag::ap {

namespace {

/// Carrier amplitude during "low" as a fraction of full scale. > 0 keeps the
/// tag illuminated (and its detector biased).
constexpr double low_level = 0.1;

} // namespace

std::vector<std::uint8_t> command_bits(const tag_command& cmd)
{
    std::vector<std::uint8_t> bytes{
        static_cast<std::uint8_t>(cmd.command),
        static_cast<std::uint8_t>(cmd.tag_id >> 8),
        static_cast<std::uint8_t>(cmd.tag_id & 0xFF),
        cmd.parameter,
    };
    bytes.push_back(fec::crc8(bytes));
    std::vector<std::uint8_t> bits;
    bits.reserve(bytes.size() * 8);
    for (std::uint8_t byte : bytes) {
        for (int bit = 7; bit >= 0; --bit) {
            bits.push_back(static_cast<std::uint8_t>((byte >> bit) & 1u));
        }
    }
    return bits;
}

std::optional<tag_command> parse_command_bits(std::span<const std::uint8_t> bits)
{
    if (bits.size() != 40) return std::nullopt;
    std::vector<std::uint8_t> bytes(5, 0);
    for (std::size_t i = 0; i < 40; ++i) {
        bytes[i / 8] = static_cast<std::uint8_t>((bytes[i / 8] << 1) | (bits[i] & 1u));
    }
    if (fec::crc8(std::span<const std::uint8_t>{bytes.data(), 4}) != bytes[4]) {
        return std::nullopt;
    }
    tag_command cmd;
    switch (bytes[0]) {
    case 0x01: cmd.command = tag_command::kind::query_all; break;
    case 0x02: cmd.command = tag_command::kind::select; break;
    case 0x03: cmd.command = tag_command::kind::read; break;
    case 0x04: cmd.command = tag_command::kind::sleep; break;
    default: return std::nullopt;
    }
    cmd.tag_id = static_cast<std::uint16_t>((bytes[1] << 8) | bytes[2]);
    cmd.parameter = bytes[3];
    return cmd;
}

query_encoder::query_encoder(const config& cfg) : cfg_(cfg)
{
    if (cfg.sample_rate_hz <= 0.0) throw std::invalid_argument("query_encoder: fs <= 0");
    if (cfg.unit_s <= 0.0) throw std::invalid_argument("query_encoder: unit <= 0");
    unit_samples_ = static_cast<std::size_t>(std::round(cfg.unit_s * cfg.sample_rate_hz));
    if (unit_samples_ < 4) {
        throw std::invalid_argument("query_encoder: unit shorter than 4 samples");
    }
}

void query_encoder::append_level(rvec& envelope, double level, std::size_t units) const
{
    envelope.insert(envelope.end(), units * unit_samples_, level);
}

rvec query_encoder::encode(const tag_command& cmd) const
{
    const auto bits = command_bits(cmd);
    rvec envelope;
    envelope.reserve((8 + bits.size() * 3) * unit_samples_);
    // Settle + delimiter + sync: full carrier, a 3-unit dip no data symbol
    // produces, then a 1-unit high and 1-unit gap to set the timing base.
    append_level(envelope, 1.0, 2);
    append_level(envelope, low_level, 3);
    append_level(envelope, 1.0, 1);
    append_level(envelope, low_level, 1);
    for (std::uint8_t bit : bits) {
        append_level(envelope, 1.0, bit ? 2 : 1);
        append_level(envelope, low_level, 1);
    }
    append_level(envelope, 1.0, 2);
    return envelope;
}

} // namespace mmtag::ap
