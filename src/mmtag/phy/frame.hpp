// mmtag frame format and symbol-level assembly/parsing.
//
//   [ preamble | header (BPSK, Hamming-coded) | payload (scheme, FEC) ]
//
// Header (4 bytes before coding):
//   byte 0: version (2 bits) | modulation (3 bits) | fec rate (3 bits)
//   bytes 1-2: payload length in bytes, big endian
//   byte 3: CRC-8 over bytes 0-2
// Header bits are Hamming(7,4) coded and sent as BPSK so the header decodes
// at lower SNR than any payload configuration.
//
// Payload: bytes + CRC-32, scrambled, optionally convolutionally coded and
// block-interleaved, then mapped to the negotiated constellation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mmtag/common.hpp"
#include "mmtag/fec/convolutional.hpp"
#include "mmtag/phy/modulation.hpp"
#include "mmtag/phy/preamble.hpp"

namespace mmtag::phy {

/// Payload FEC selection (3-bit field in the header).
enum class fec_mode : std::uint8_t {
    uncoded = 0,
    conv_half = 1,
    conv_two_thirds = 2,
    conv_three_quarters = 3,
};

[[nodiscard]] double fec_mode_rate(fec_mode mode);
[[nodiscard]] const char* fec_mode_name(fec_mode mode);

/// Parses a CLI FEC token ("none", "1/2", "2/3", "3/4"); throws
/// std::invalid_argument on anything else.
[[nodiscard]] fec_mode parse_fec(const std::string& name);

/// A modulation-and-coding scheme: the (modulation, FEC) pair a payload is
/// sent with. The unit the rate ladder, the frame header and the multi-tag
/// robust-mode override all speak in.
struct mcs {
    modulation scheme = modulation::bpsk;
    fec_mode fec = fec_mode::conv_half;

    /// Information bits per symbol (bits per symbol x code rate).
    [[nodiscard]] double efficiency() const;

    friend bool operator==(const mcs&, const mcs&) = default;
};

struct frame_config {
    modulation scheme = modulation::qpsk;
    fec_mode fec = fec_mode::conv_half;
    preamble_layout preamble{};
    std::uint8_t scrambler_seed = 0x5D;
    std::size_t interleaver_rows = 8;
    std::size_t interleaver_columns = 12;
};

inline constexpr std::size_t max_payload_bytes = 2047;
inline constexpr std::size_t header_symbol_count = 56; // 4 bytes -> Hamming(7,4) -> BPSK

/// Builds the complete symbol stream (preamble + header + payload) for a
/// payload of at most max_payload_bytes.
[[nodiscard]] cvec build_frame(std::span<const std::uint8_t> payload, const frame_config& cfg);

/// Number of payload symbols a frame of `payload_bytes` occupies under `cfg`
/// (the receiver uses this to know where the frame ends).
[[nodiscard]] std::size_t payload_symbol_count(std::size_t payload_bytes,
                                               const frame_config& cfg);

struct decoded_header {
    std::uint8_t version = 0;
    modulation scheme = modulation::qpsk;
    fec_mode fec = fec_mode::conv_half;
    std::size_t payload_bytes = 0;
};

/// Decodes the header from its 56 BPSK symbols; nullopt on CRC failure.
[[nodiscard]] std::optional<decoded_header> decode_header(std::span<const cf64> symbols);

struct decode_result {
    bool crc_ok = false;
    decoded_header header;
    std::vector<std::uint8_t> payload;
};

/// Parses a frame from a symbol stream beginning at the header (i.e. at
/// sync_result::frame_start). `noise_variance` feeds the soft demapper.
/// Returns nullopt when the header is undecodable or the stream is too
/// short; returns a result with crc_ok=false when only the payload CRC
/// fails (so callers can count packet errors).
[[nodiscard]] std::optional<decode_result> decode_frame(std::span<const cf64> symbols,
                                                        const frame_config& cfg,
                                                        double noise_variance = 0.1);

} // namespace mmtag::phy
