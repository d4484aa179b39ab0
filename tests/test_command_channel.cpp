#include <gtest/gtest.h>

#include <random>

#include "mmtag/ap/query_encoder.hpp"
#include "mmtag/fec/crc.hpp"
#include "mmtag/rf/envelope_detector.hpp"
#include "mmtag/tag/command_decoder.hpp"

namespace mmtag {
namespace {

ap::query_encoder::config encoder_config()
{
    ap::query_encoder::config cfg;
    cfg.sample_rate_hz = 50e6;
    cfg.unit_s = 2e-6;
    return cfg;
}

tag::command_decoder::config decoder_config()
{
    tag::command_decoder::config cfg;
    cfg.sample_rate_hz = 50e6;
    cfg.unit_s = 2e-6;
    return cfg;
}

TEST(command_bits, round_trip_all_kinds)
{
    for (auto kind : {ap::tag_command::kind::query_all, ap::tag_command::kind::select,
                      ap::tag_command::kind::read, ap::tag_command::kind::sleep}) {
        ap::tag_command cmd;
        cmd.command = kind;
        cmd.tag_id = 0xBEEF;
        cmd.parameter = 0x2A;
        const auto bits = ap::command_bits(cmd);
        ASSERT_EQ(bits.size(), 40u);
        const auto parsed = ap::parse_command_bits(bits);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->command, kind);
        EXPECT_EQ(parsed->tag_id, 0xBEEF);
        EXPECT_EQ(parsed->parameter, 0x2A);
    }
}

TEST(command_bits, crc_rejects_corruption)
{
    ap::tag_command cmd;
    cmd.tag_id = 77;
    auto bits = ap::command_bits(cmd);
    for (std::size_t i = 0; i < bits.size(); i += 7) {
        auto corrupted = bits;
        corrupted[i] ^= 1;
        EXPECT_FALSE(ap::parse_command_bits(corrupted).has_value()) << "bit " << i;
    }
}

TEST(command_bits, unknown_kind_rejected)
{
    // Craft bytes with a bogus command id but a valid CRC.
    std::vector<std::uint8_t> bytes{0xFF, 0, 1, 0};
    bytes.push_back(fec::crc8(bytes));
    std::vector<std::uint8_t> raw;
    for (auto b : bytes) {
        for (int k = 7; k >= 0; --k) raw.push_back(static_cast<std::uint8_t>((b >> k) & 1));
    }
    EXPECT_FALSE(ap::parse_command_bits(raw).has_value());
}

TEST(command_channel, clean_envelope_decodes)
{
    const ap::query_encoder encoder(encoder_config());
    const tag::command_decoder decoder(decoder_config());
    ap::tag_command cmd;
    cmd.command = ap::tag_command::kind::select;
    cmd.tag_id = 1234;
    cmd.parameter = 5;

    const rvec envelope = encoder.encode(cmd);
    const std::vector<double> as_voltage(envelope.begin(), envelope.end());
    const auto decoded = decoder.decode(as_voltage);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->command.command, ap::tag_command::kind::select);
    EXPECT_EQ(decoded->command.tag_id, 1234);
    EXPECT_EQ(decoded->command.parameter, 5);
}

TEST(command_channel, decodes_through_envelope_detector)
{
    // Full tag-side path: RF amplitude modulation -> square-law detector ->
    // PIE decoder, with detector noise.
    const ap::query_encoder encoder(encoder_config());
    ap::tag_command cmd;
    cmd.command = ap::tag_command::kind::read;
    cmd.tag_id = 42;
    cmd.parameter = 9;
    const rvec envelope = encoder.encode(cmd);

    // Incident RF at the tag: -20 dBm carrier scaled by the envelope.
    const double amplitude = std::sqrt(1e-5);
    cvec rf(envelope.size());
    for (std::size_t i = 0; i < rf.size(); ++i) rf[i] = {amplitude * envelope[i], 0.0};

    rf::envelope_detector::config det_cfg;
    det_cfg.sample_rate_hz = 50e6;
    det_cfg.video_bandwidth_hz = 5e6;
    det_cfg.responsivity_v_per_w = 2000.0;
    det_cfg.noise_equivalent_power_w = 5e-9;
    rf::envelope_detector detector(det_cfg, 3);
    const rvec voltage = detector.detect(rf);

    const tag::command_decoder decoder(decoder_config());
    const auto decoded = decoder.decode(voltage);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->command.command, ap::tag_command::kind::read);
    EXPECT_EQ(decoded->command.tag_id, 42);
    EXPECT_EQ(decoded->command.parameter, 9);
}

TEST(command_channel, silence_and_noise_decode_nothing)
{
    const tag::command_decoder decoder(decoder_config());
    EXPECT_FALSE(decoder.decode(std::vector<double>(5000, 0.7)).has_value());

    std::mt19937_64 rng(9);
    std::normal_distribution<double> g(0.5, 0.1);
    std::vector<double> noise(20000);
    for (auto& v : noise) v = g(rng);
    EXPECT_FALSE(decoder.decode(noise).has_value());
}

TEST(command_channel, finds_command_after_idle_carrier)
{
    const ap::query_encoder encoder(encoder_config());
    ap::tag_command cmd;
    cmd.tag_id = 7;
    const rvec envelope = encoder.encode(cmd);
    std::vector<double> stream(30000, 1.0); // long idle carrier first
    stream.insert(stream.end(), envelope.begin(), envelope.end());
    const tag::command_decoder decoder(decoder_config());
    const auto decoded = decoder.decode(stream);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->command.tag_id, 7);
}

TEST(command_channel, slicer_reports_runs)
{
    const tag::command_decoder decoder(decoder_config());
    std::vector<double> envelope(100, 1.0);
    envelope.insert(envelope.end(), 200, 0.1);
    envelope.insert(envelope.end(), 50, 1.0);
    const auto runs = decoder.slice(envelope);
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_TRUE(runs[0].high);
    EXPECT_EQ(runs[1].samples, 200u);
    EXPECT_FALSE(runs[1].high);
}

TEST(command_channel, duration_scales_with_ones)
{
    const ap::query_encoder encoder(encoder_config());
    ap::tag_command zeros;
    zeros.command = ap::tag_command::kind::query_all; // 0x01: one set bit
    zeros.tag_id = 0;
    zeros.parameter = 0;
    ap::tag_command ones = zeros;
    ones.tag_id = 0xFFFF;
    // PIE data-1 is one unit longer than data-0.
    EXPECT_GT(encoder.encode(ones).size(), encoder.encode(zeros).size());
}

TEST(command_channel, validation)
{
    auto bad = encoder_config();
    bad.unit_s = 50e-9; // 2.5 samples at 50 MS/s
    EXPECT_THROW(ap::query_encoder{bad}, std::invalid_argument);

    auto decoder_bad = decoder_config();
    decoder_bad.sample_rate_hz = 0.0;
    EXPECT_THROW(tag::command_decoder{decoder_bad}, std::invalid_argument);
}

} // namespace
} // namespace mmtag
