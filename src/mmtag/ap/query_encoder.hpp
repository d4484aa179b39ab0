// AP -> tag command signaling. The AP amplitude-modulates its query carrier
// with pulse-interval encoding (PIE, the RFID reader downlink technique):
// bit durations carry the data, so the tag can decode with nothing but its
// envelope detector and a timer — no mmWave receiver. The carrier keeps
// running between commands so the tag stays illuminated for backscatter.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mmtag/common.hpp"

namespace mmtag::ap {

/// One MAC command, 40 bits on air: kind(8) | tag id(16) | parameter(8) |
/// CRC-8(8).
struct tag_command {
    enum class kind : std::uint8_t {
        query_all = 0x01, ///< begin inventory round; parameter = Q
        select = 0x02,    ///< address one tag for the next exchange
        read = 0x03,      ///< addressed tag backscatters its payload
        sleep = 0x04,     ///< addressed tag mutes until the next round
    };
    kind command = kind::query_all;
    std::uint16_t tag_id = 0;
    std::uint8_t parameter = 0;
};

/// Serializes a command to its 40-bit representation (with CRC-8 appended).
[[nodiscard]] std::vector<std::uint8_t> command_bits(const tag_command& cmd);

/// Parses 40 bits back into a command; nullopt on CRC failure or unknown
/// command kind.
[[nodiscard]] std::optional<tag_command> parse_command_bits(
    std::span<const std::uint8_t> bits);

class query_encoder {
public:
    struct config {
        double sample_rate_hz = 250e6;
        /// PIE base unit (tari). Data-0 occupies 1 high unit, data-1 two,
        /// each followed by a 1-unit low gap.
        double unit_s = 2e-6;
    };

    explicit query_encoder(const config& cfg);

    [[nodiscard]] const config& parameters() const { return cfg_; }
    [[nodiscard]] std::size_t unit_samples() const { return unit_samples_; }

    /// Amplitude envelope (values in [0.1, 1]) for one command:
    /// [settle high][delimiter low x3][sync high][gap][PIE bits][settle high].
    [[nodiscard]] rvec encode(const tag_command& cmd) const;

private:
    void append_level(rvec& envelope, double level, std::size_t units) const;

    config cfg_;
    std::size_t unit_samples_;
};

} // namespace mmtag::ap
