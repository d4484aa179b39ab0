#include <gtest/gtest.h>

#include <ostream>
#include <random>

#include "mmtag/phy/bitio.hpp"
#include "mmtag/phy/frame.hpp"

namespace mmtag::phy {
namespace {

frame_config make_config(modulation scheme, fec_mode fec)
{
    frame_config cfg;
    cfg.scheme = scheme;
    cfg.fec = fec;
    return cfg;
}

TEST(preamble, structure)
{
    preamble_layout layout;
    const cvec p = make_preamble(layout);
    EXPECT_EQ(p.size(), layout.total_symbols());
    EXPECT_EQ(sync_word(layout).size(), 127u); // degree-7 m-sequence
    // AGC section alternates.
    for (std::size_t i = 0; i + 1 < layout.agc_symbols; ++i) {
        EXPECT_NEAR(std::abs(p[i] + p[i + 1]), 0.0, 1e-12);
    }
}

TEST(preamble, detected_at_any_offset)
{
    preamble_layout layout;
    const cvec p = make_preamble(layout);
    for (std::size_t offset : {0u, 5u, 40u}) {
        cvec stream(offset, cf64{0.01, 0.0});
        stream.insert(stream.end(), p.begin(), p.end());
        stream.resize(stream.size() + 30, cf64{0.01, 0.0});
        const auto sync = detect_preamble(stream, layout);
        ASSERT_TRUE(sync.has_value()) << "offset " << offset;
        EXPECT_EQ(sync->frame_start, offset + layout.total_symbols());
        EXPECT_NEAR(std::abs(sync->channel_gain - cf64{1.0, 0.0}), 0.0, 1e-9);
    }
}

TEST(preamble, gain_estimate_tracks_channel)
{
    preamble_layout layout;
    cvec stream = make_preamble(layout);
    const cf64 gain = std::polar(0.02, 1.2);
    for (auto& s : stream) s *= gain;
    const auto sync = detect_preamble(stream, layout);
    ASSERT_TRUE(sync.has_value());
    EXPECT_NEAR(std::abs(sync->channel_gain - gain), 0.0, 1e-9);
}

TEST(preamble, pure_noise_rejected)
{
    std::mt19937_64 rng(31);
    std::normal_distribution<double> g(0.0, 1.0);
    cvec noise(300);
    for (auto& s : noise) s = {g(rng), g(rng)};
    const auto sync = detect_preamble(noise, {}, 4.0);
    EXPECT_FALSE(sync.has_value());
}

TEST(frame, header_round_trip)
{
    const auto cfg = make_config(modulation::psk8, fec_mode::conv_three_quarters);
    const cvec symbols = build_frame(random_bytes(100, 1), cfg);
    // Header begins right after the preamble.
    const std::span<const cf64> header_span{symbols.data() + cfg.preamble.total_symbols(),
                                            header_symbol_count};
    const auto header = decode_header(header_span);
    ASSERT_TRUE(header.has_value());
    EXPECT_EQ(header->scheme, modulation::psk8);
    EXPECT_EQ(header->fec, fec_mode::conv_three_quarters);
    EXPECT_EQ(header->payload_bytes, 100u);
    EXPECT_EQ(header->version, 1);
}

TEST(frame, header_survives_single_symbol_error)
{
    const auto cfg = make_config(modulation::qpsk, fec_mode::conv_half);
    cvec symbols = build_frame(random_bytes(40, 2), cfg);
    const std::size_t header_start = cfg.preamble.total_symbols();
    symbols[header_start + 10] = -symbols[header_start + 10]; // flip one BPSK symbol
    const auto header = decode_header(
        std::span<const cf64>{symbols.data() + header_start, header_symbol_count});
    ASSERT_TRUE(header.has_value()); // Hamming corrects it
    EXPECT_EQ(header->payload_bytes, 40u);
}

TEST(frame, corrupted_header_crc_rejected)
{
    const auto cfg = make_config(modulation::qpsk, fec_mode::conv_half);
    cvec symbols = build_frame(random_bytes(40, 3), cfg);
    const std::size_t header_start = cfg.preamble.total_symbols();
    // Two errors in the same 7-bit block defeat Hamming and must be caught
    // by the header CRC.
    symbols[header_start + 0] = -symbols[header_start + 0];
    symbols[header_start + 1] = -symbols[header_start + 1];
    const auto header = decode_header(
        std::span<const cf64>{symbols.data() + header_start, header_symbol_count});
    EXPECT_FALSE(header.has_value());
}

struct frame_case {
    modulation scheme;
    fec_mode fec;
    std::size_t payload_bytes;
};

/// Names the case in test output. Without it gtest prints the raw bytes,
/// padding included, so the test names changed from one run to the next.
void PrintTo(const frame_case& c, std::ostream* os)
{
    *os << modulation_name(c.scheme) << ' ' << fec_mode_name(c.fec) << ' '
        << c.payload_bytes << " B";
}

class frame_round_trip : public ::testing::TestWithParam<frame_case> {};

TEST_P(frame_round_trip, clean_decode)
{
    const auto param = GetParam();
    const auto cfg = make_config(param.scheme, param.fec);
    const auto payload = random_bytes(param.payload_bytes, 7 + param.payload_bytes);
    const cvec symbols = build_frame(payload, cfg);

    const std::span<const cf64> frame_span{symbols.data() + cfg.preamble.total_symbols(),
                                           symbols.size() - cfg.preamble.total_symbols()};
    const auto result = decode_frame(frame_span, cfg, 0.05);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->crc_ok);
    EXPECT_EQ(result->payload, payload);
    EXPECT_EQ(result->symbols_consumed,
              header_symbol_count + payload_symbol_count(payload.size(), cfg));
}

INSTANTIATE_TEST_SUITE_P(
    matrix, frame_round_trip,
    ::testing::Values(frame_case{modulation::bpsk, fec_mode::conv_half, 16},
                      frame_case{modulation::bpsk, fec_mode::uncoded, 16},
                      frame_case{modulation::qpsk, fec_mode::conv_half, 64},
                      frame_case{modulation::qpsk, fec_mode::conv_two_thirds, 64},
                      frame_case{modulation::qpsk, fec_mode::conv_three_quarters, 64},
                      frame_case{modulation::qpsk, fec_mode::uncoded, 200},
                      frame_case{modulation::psk8, fec_mode::conv_half, 128},
                      frame_case{modulation::psk16, fec_mode::conv_half, 48},
                      frame_case{modulation::qpsk, fec_mode::conv_half, 1},
                      frame_case{modulation::qpsk, fec_mode::conv_half, 1024}));

TEST(frame, coded_frame_survives_symbol_noise)
{
    const auto cfg = make_config(modulation::qpsk, fec_mode::conv_half);
    const auto payload = random_bytes(64, 11);
    cvec symbols = build_frame(payload, cfg);
    std::mt19937_64 rng(13);
    std::normal_distribution<double> g(0.0, 0.25);
    for (auto& s : symbols) s += cf64{g(rng), g(rng)};

    const std::span<const cf64> frame_span{symbols.data() + cfg.preamble.total_symbols(),
                                           symbols.size() - cfg.preamble.total_symbols()};
    const auto result = decode_frame(frame_span, cfg, 2.0 * 0.25 * 0.25);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->crc_ok);
    EXPECT_EQ(result->payload, payload);
}

TEST(frame, destroyed_payload_fails_crc_but_reports)
{
    const auto cfg = make_config(modulation::qpsk, fec_mode::uncoded);
    const auto payload = random_bytes(64, 17);
    cvec symbols = build_frame(payload, cfg);
    // Obliterate a chunk of payload symbols (after preamble+header).
    const std::size_t start = cfg.preamble.total_symbols() + header_symbol_count + 20;
    for (std::size_t i = start; i < start + 40; ++i) symbols[i] = -symbols[i];

    const std::span<const cf64> frame_span{symbols.data() + cfg.preamble.total_symbols(),
                                           symbols.size() - cfg.preamble.total_symbols()};
    const auto result = decode_frame(frame_span, cfg, 0.05);
    ASSERT_TRUE(result.has_value());
    EXPECT_FALSE(result->crc_ok);
    EXPECT_EQ(result->payload.size(), payload.size()); // corrupted bytes returned
}

TEST(frame, truncated_stream_returns_nullopt)
{
    const auto cfg = make_config(modulation::qpsk, fec_mode::conv_half);
    const auto payload = random_bytes(64, 19);
    const cvec symbols = build_frame(payload, cfg);
    const std::size_t frame_start = cfg.preamble.total_symbols();
    const std::span<const cf64> short_span{symbols.data() + frame_start, 100};
    EXPECT_FALSE(decode_frame(short_span, cfg, 0.05).has_value());
}

TEST(frame, oversize_payload_rejected)
{
    const auto cfg = make_config(modulation::qpsk, fec_mode::conv_half);
    EXPECT_THROW((void)build_frame(std::vector<std::uint8_t>(max_payload_bytes + 1, 0), cfg),
                 std::invalid_argument);
}

TEST(frame, spectral_efficiency_values)
{
    EXPECT_DOUBLE_EQ((mcs{modulation::qpsk, fec_mode::conv_half}.efficiency()), 1.0);
    EXPECT_DOUBLE_EQ((mcs{modulation::psk16, fec_mode::uncoded}.efficiency()), 4.0);
    EXPECT_NEAR((mcs{modulation::psk8, fec_mode::conv_two_thirds}.efficiency()), 2.0, 1e-12);
}

TEST(frame, receiver_adapts_to_header_not_local_config)
{
    // Build with 8-PSK R=3/4, decode with a receiver configured for QPSK —
    // the header must override.
    const auto tx_cfg = make_config(modulation::psk8, fec_mode::conv_three_quarters);
    const auto payload = random_bytes(80, 23);
    const cvec symbols = build_frame(payload, tx_cfg);
    const auto rx_cfg = make_config(modulation::qpsk, fec_mode::conv_half);
    const std::span<const cf64> frame_span{symbols.data() + tx_cfg.preamble.total_symbols(),
                                           symbols.size() - tx_cfg.preamble.total_symbols()};
    const auto result = decode_frame(frame_span, rx_cfg, 0.05);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->crc_ok);
    EXPECT_EQ(result->payload, payload);
}

} // namespace
} // namespace mmtag::phy
