#include "mmtag/phy/frame.hpp"

#include <stdexcept>

#include "mmtag/fec/crc.hpp"
#include "mmtag/fec/hamming.hpp"
#include "mmtag/fec/interleaver.hpp"
#include "mmtag/fec/scrambler.hpp"
#include "mmtag/phy/bitio.hpp"

namespace mmtag::phy {

namespace {

constexpr std::uint8_t protocol_version = 1;

fec::code_rate to_code_rate(fec_mode mode)
{
    switch (mode) {
    case fec_mode::conv_half: return fec::code_rate::half;
    case fec_mode::conv_two_thirds: return fec::code_rate::two_thirds;
    case fec_mode::conv_three_quarters: return fec::code_rate::three_quarters;
    case fec_mode::uncoded: break;
    }
    throw std::invalid_argument("to_code_rate: uncoded mode has no code rate");
}

std::size_t coded_bit_count(std::size_t payload_bytes, fec_mode mode)
{
    const std::size_t info_bits = (payload_bytes + 4) * 8; // payload + CRC-32
    if (mode == fec_mode::uncoded) return info_bits;
    return fec::coded_length(info_bits, to_code_rate(mode));
}

std::size_t interleaved_bit_count(std::size_t payload_bytes, const frame_config& cfg)
{
    const std::size_t coded = coded_bit_count(payload_bytes, cfg.fec);
    const std::size_t block = cfg.interleaver_rows * cfg.interleaver_columns;
    return (coded + block - 1) / block * block;
}

std::vector<std::uint8_t> build_header_bytes(std::size_t payload_bytes,
                                             const frame_config& cfg)
{
    std::vector<std::uint8_t> header(4, 0);
    header[0] = static_cast<std::uint8_t>((protocol_version & 0x3u) << 6 |
                                          (static_cast<unsigned>(cfg.scheme) & 0x7u) << 3 |
                                          (static_cast<unsigned>(cfg.fec) & 0x7u));
    header[1] = static_cast<std::uint8_t>((payload_bytes >> 8) & 0xFFu);
    header[2] = static_cast<std::uint8_t>(payload_bytes & 0xFFu);
    header[3] = fec::crc8(std::span<const std::uint8_t>{header.data(), 3});
    return header;
}

} // namespace

double fec_mode_rate(fec_mode mode)
{
    switch (mode) {
    case fec_mode::uncoded: return 1.0;
    case fec_mode::conv_half: return 0.5;
    case fec_mode::conv_two_thirds: return 2.0 / 3.0;
    case fec_mode::conv_three_quarters: return 0.75;
    }
    throw std::invalid_argument("fec_mode_rate: unknown mode");
}

const char* fec_mode_name(fec_mode mode)
{
    switch (mode) {
    case fec_mode::uncoded: return "uncoded";
    case fec_mode::conv_half: return "conv-1/2";
    case fec_mode::conv_two_thirds: return "conv-2/3";
    case fec_mode::conv_three_quarters: return "conv-3/4";
    }
    throw std::invalid_argument("fec_mode_name: unknown mode");
}

fec_mode parse_fec(const std::string& name)
{
    if (name == "none") return fec_mode::uncoded;
    if (name == "1/2") return fec_mode::conv_half;
    if (name == "2/3") return fec_mode::conv_two_thirds;
    if (name == "3/4") return fec_mode::conv_three_quarters;
    throw std::invalid_argument("unknown FEC '" + name + "' (none, 1/2, 2/3, 3/4)");
}

double mcs::efficiency() const
{
    return static_cast<double>(bits_per_symbol(scheme)) * fec_mode_rate(fec);
}

cvec build_frame(std::span<const std::uint8_t> payload, const frame_config& cfg)
{
    if (payload.size() > max_payload_bytes) {
        throw std::invalid_argument("build_frame: payload exceeds max_payload_bytes");
    }

    // Header: 4 bytes -> Hamming(7,4) -> BPSK.
    const std::vector<std::uint8_t> header_bytes = build_header_bytes(payload.size(), cfg);
    const std::vector<std::uint8_t> header_coded =
        fec::hamming74_encode(bytes_to_bits(header_bytes));
    const cvec header_symbols = map_bits(header_coded, modulation::bpsk);

    // Payload: CRC-32, whiten, FEC, interleave, map.
    const std::vector<std::uint8_t> with_crc = fec::append_crc32(payload);
    const std::vector<std::uint8_t> whitened = fec::scramble_bytes(with_crc, cfg.scrambler_seed);
    std::vector<std::uint8_t> bits = bytes_to_bits(whitened);
    if (cfg.fec != fec_mode::uncoded) {
        bits = fec::convolutional_encode(bits, to_code_rate(cfg.fec));
    }
    const fec::block_interleaver interleaver(cfg.interleaver_rows, cfg.interleaver_columns);
    const std::vector<std::uint8_t> interleaved = interleaver.interleave(bits);
    const cvec payload_symbols = map_bits(interleaved, cfg.scheme);

    cvec frame = make_preamble(cfg.preamble);
    frame.insert(frame.end(), header_symbols.begin(), header_symbols.end());
    frame.insert(frame.end(), payload_symbols.begin(), payload_symbols.end());
    return frame;
}

std::size_t payload_symbol_count(std::size_t payload_bytes, const frame_config& cfg)
{
    const std::size_t bits = interleaved_bit_count(payload_bytes, cfg);
    const std::size_t k = bits_per_symbol(cfg.scheme);
    return (bits + k - 1) / k;
}

std::optional<decoded_header> decode_header(std::span<const cf64> symbols)
{
    if (symbols.size() < header_symbol_count) return std::nullopt;
    const std::vector<std::uint8_t> coded_bits =
        demap_hard(symbols.subspan(0, header_symbol_count), modulation::bpsk);
    const std::vector<std::uint8_t> bits = fec::hamming74_decode(coded_bits);
    const std::vector<std::uint8_t> bytes = bits_to_bytes(bits);
    if (bytes.size() != 4) return std::nullopt;
    if (fec::crc8(std::span<const std::uint8_t>{bytes.data(), 3}) != bytes[3]) {
        return std::nullopt;
    }
    decoded_header header;
    header.version = static_cast<std::uint8_t>(bytes[0] >> 6);
    const unsigned scheme_bits = (bytes[0] >> 3) & 0x7u;
    const unsigned fec_bits = bytes[0] & 0x7u;
    if (scheme_bits > 3 || fec_bits > 3) return std::nullopt;
    header.scheme = static_cast<modulation>(scheme_bits);
    header.fec = static_cast<fec_mode>(fec_bits);
    header.payload_bytes = (static_cast<std::size_t>(bytes[1]) << 8) | bytes[2];
    if (header.payload_bytes > max_payload_bytes) return std::nullopt;
    return header;
}

std::optional<decode_result> decode_frame(std::span<const cf64> symbols,
                                          const frame_config& cfg, double noise_variance)
{
    const auto header = decode_header(symbols);
    if (!header) return std::nullopt;

    frame_config rx_cfg = cfg;
    rx_cfg.scheme = header->scheme;
    rx_cfg.fec = header->fec;

    const std::size_t payload_symbols = payload_symbol_count(header->payload_bytes, rx_cfg);
    if (symbols.size() < header_symbol_count + payload_symbols) return std::nullopt;

    const auto payload_span = symbols.subspan(header_symbol_count, payload_symbols);
    const std::vector<double> llrs = demap_soft(payload_span, rx_cfg.scheme, noise_variance);

    const std::size_t interleaved_bits = interleaved_bit_count(header->payload_bytes, rx_cfg);
    std::vector<double> soft(llrs.begin(),
                             llrs.begin() + static_cast<std::ptrdiff_t>(interleaved_bits));
    const fec::block_interleaver interleaver(rx_cfg.interleaver_rows, rx_cfg.interleaver_columns);
    soft = interleaver.deinterleave_soft(soft);

    const std::size_t coded_bits = coded_bit_count(header->payload_bytes, rx_cfg.fec);
    soft.resize(coded_bits);

    std::vector<std::uint8_t> bits;
    if (rx_cfg.fec == fec_mode::uncoded) {
        bits.reserve(soft.size());
        for (double value : soft) bits.push_back(value < 0.0 ? 1 : 0);
    } else {
        bits = fec::viterbi_decode_soft(soft, to_code_rate(rx_cfg.fec));
    }
    bits.resize((header->payload_bytes + 4) * 8);

    const std::vector<std::uint8_t> whitened = bits_to_bytes(bits);
    const std::vector<std::uint8_t> dewhitened =
        fec::scramble_bytes(whitened, rx_cfg.scrambler_seed);

    decode_result result;
    result.header = *header;
    result.crc_ok = fec::check_and_strip_crc32(dewhitened, result.payload);
    if (!result.crc_ok) {
        // Hand back the corrupted bytes anyway so BER can be measured.
        result.payload.assign(dewhitened.begin(), dewhitened.end() - 4);
    }
    return result;
}

} // namespace mmtag::phy
