#include <gtest/gtest.h>

#include "mmtag/fec/crc.hpp"
#include "mmtag/fec/scrambler.hpp"
#include "mmtag/phy/bitio.hpp"

namespace mmtag::fec {
namespace {

std::vector<std::uint8_t> check_string()
{
    const std::string s = "123456789";
    return {s.begin(), s.end()};
}

TEST(crc, crc32_check_value)
{
    // The canonical CRC-32/ISO-HDLC check value.
    EXPECT_EQ(crc32(check_string()), 0xCBF43926u);
}

TEST(crc, crc8_check_value)
{
    // CRC-8/SMBUS (poly 0x07, init 0) check value.
    EXPECT_EQ(crc8(check_string()), 0xF4u);
}

TEST(crc, empty_input)
{
    EXPECT_EQ(crc8({}), 0x00u);
    EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(crc, append_and_verify_round_trip)
{
    const auto payload = mmtag::phy::random_bytes(100, 1);
    const auto framed = append_crc32(payload);
    ASSERT_EQ(framed.size(), payload.size() + 4);
    std::vector<std::uint8_t> recovered;
    EXPECT_TRUE(check_and_strip_crc32(framed, recovered));
    EXPECT_EQ(recovered, payload);
}

TEST(crc, detects_every_single_byte_corruption)
{
    const auto payload = mmtag::phy::random_bytes(32, 2);
    const auto framed = append_crc32(payload);
    for (std::size_t i = 0; i < framed.size(); ++i) {
        auto corrupted = framed;
        corrupted[i] ^= 0x40;
        std::vector<std::uint8_t> out;
        EXPECT_FALSE(check_and_strip_crc32(corrupted, out)) << "byte " << i;
    }
}

TEST(crc, short_frame_rejected)
{
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(check_and_strip_crc32(std::vector<std::uint8_t>{1, 2, 3}, out));
}

TEST(scrambler, is_an_involution)
{
    const auto bits = mmtag::phy::random_bits(500, 3);
    scrambler forward(0x5D);
    scrambler backward(0x5D);
    EXPECT_EQ(backward.process(forward.process(bits)), bits);
}

TEST(scrambler, byte_level_involution)
{
    const auto bytes = mmtag::phy::random_bytes(64, 4);
    EXPECT_EQ(scramble_bytes(scramble_bytes(bytes)), bytes);
}

TEST(scrambler, whitens_constant_input)
{
    // An all-zero input must come out looking balanced (the whitening
    // sequence itself): between 35% and 65% ones over a long run.
    const std::vector<std::uint8_t> zeros(1000, 0);
    scrambler s;
    const auto out = s.process(zeros);
    std::size_t ones = 0;
    for (auto b : out) ones += b;
    EXPECT_GT(ones, 350u);
    EXPECT_LT(ones, 650u);
}

TEST(scrambler, breaks_long_runs)
{
    const std::vector<std::uint8_t> zeros(512, 0);
    scrambler s;
    const auto out = s.process(zeros);
    std::size_t longest = 0;
    std::size_t run = 1;
    for (std::size_t i = 1; i < out.size(); ++i) {
        run = out[i] == out[i - 1] ? run + 1 : 1;
        longest = std::max(longest, run);
    }
    EXPECT_LT(longest, 16u); // x^7 scrambler max run is bounded
}

TEST(scrambler, rejects_zero_seed)
{
    EXPECT_THROW(scrambler(0x80), std::invalid_argument); // 0 mod 2^7
}

TEST(scrambler, different_seeds_differ)
{
    const std::vector<std::uint8_t> zeros(64, 0);
    scrambler a(0x5D);
    scrambler b(0x31);
    EXPECT_NE(a.process(zeros), b.process(zeros));
}

} // namespace
} // namespace mmtag::fec
