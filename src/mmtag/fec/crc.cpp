#include "mmtag/fec/crc.hpp"

namespace mmtag::fec {

namespace {

std::array<std::uint8_t, 256> make_crc8_table()
{
    std::array<std::uint8_t, 256> table{};
    for (unsigned i = 0; i < 256; ++i) {
        std::uint8_t value = static_cast<std::uint8_t>(i);
        for (int bit = 0; bit < 8; ++bit) {
            value = static_cast<std::uint8_t>((value & 0x80u) ? (value << 1) ^ 0x07u
                                                              : (value << 1));
        }
        table[i] = value;
    }
    return table;
}

std::array<std::uint32_t, 256> make_crc32_table()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t value = i;
        for (int bit = 0; bit < 8; ++bit) {
            value = (value & 1u) ? (value >> 1) ^ 0xEDB88320u : (value >> 1);
        }
        table[i] = value;
    }
    return table;
}

} // namespace

std::uint8_t crc8(std::span<const std::uint8_t> data)
{
    static const auto table = make_crc8_table();
    std::uint8_t crc = 0;
    for (std::uint8_t byte : data) crc = table[crc ^ byte];
    return crc;
}

std::uint32_t crc32(std::span<const std::uint8_t> data)
{
    static const auto table = make_crc32_table();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::uint8_t byte : data) crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> append_crc32(std::span<const std::uint8_t> data)
{
    std::vector<std::uint8_t> out(data.begin(), data.end());
    const std::uint32_t crc = crc32(data);
    out.push_back(static_cast<std::uint8_t>(crc >> 24));
    out.push_back(static_cast<std::uint8_t>(crc >> 16));
    out.push_back(static_cast<std::uint8_t>(crc >> 8));
    out.push_back(static_cast<std::uint8_t>(crc));
    return out;
}

bool check_and_strip_crc32(std::span<const std::uint8_t> frame, std::vector<std::uint8_t>& payload)
{
    if (frame.size() < 4) return false;
    const std::span<const std::uint8_t> body = frame.subspan(0, frame.size() - 4);
    const std::uint32_t expected = (static_cast<std::uint32_t>(frame[frame.size() - 4]) << 24) |
                                   (static_cast<std::uint32_t>(frame[frame.size() - 3]) << 16) |
                                   (static_cast<std::uint32_t>(frame[frame.size() - 2]) << 8) |
                                   static_cast<std::uint32_t>(frame[frame.size() - 1]);
    if (crc32(body) != expected) return false;
    payload.assign(body.begin(), body.end());
    return true;
}

} // namespace mmtag::fec
