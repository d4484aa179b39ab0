#include "mmtag/core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "mmtag/phy/bitio.hpp"

namespace mmtag::core {

void error_counter::add_frame(std::span<const std::uint8_t> sent,
                              std::span<const std::uint8_t> received, bool delivered)
{
    ++frames_;
    if (delivered) ++delivered_;
    bits_ += sent.size() * 8;
    const std::size_t compare = std::min(sent.size(), received.size());
    for (std::size_t i = 0; i < compare; ++i) {
        std::uint8_t diff = static_cast<std::uint8_t>(sent[i] ^ received[i]);
        while (diff != 0) {
            bit_errors_ += diff & 1u;
            diff >>= 1;
        }
    }
    // Missing bytes count as fully errored at rate 1/2 (random data).
    if (received.size() < sent.size()) {
        bit_errors_ += (sent.size() - received.size()) * 4;
    }
}

void error_counter::add_lost_frame(std::size_t payload_bytes)
{
    ++frames_;
    bits_ += payload_bytes * 8;
    bit_errors_ += payload_bytes * 4; // undetected output ~ coin-flip bits
}

void error_counter::add_bits(std::size_t bits, std::size_t bit_errors)
{
    bits_ += bits;
    bit_errors_ += bit_errors;
}

void error_counter::merge(const error_counter& other)
{
    frames_ += other.frames_;
    delivered_ += other.delivered_;
    bits_ += other.bits_;
    bit_errors_ += other.bit_errors_;
}

namespace {

/// Wilson-interval half width (95%) for `errors` successes in `n` draws.
double wilson_half_width(std::size_t errors, std::size_t n_draws)
{
    if (n_draws == 0) return 0.0;
    constexpr double z = 1.96;
    const double n = static_cast<double>(n_draws);
    const double p = static_cast<double>(errors) / n;
    return z * std::sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / (1.0 + z * z / n);
}

} // namespace

double error_counter::ber() const
{
    if (bits_ == 0) return 0.0;
    return static_cast<double>(bit_errors_) / static_cast<double>(bits_);
}

double error_counter::per() const
{
    if (frames_ == 0) return 0.0;
    return 1.0 - static_cast<double>(delivered_) / static_cast<double>(frames_);
}

double error_counter::ber_confidence() const
{
    return wilson_half_width(bit_errors_, bits_);
}

void link_report::merge(const link_report& other)
{
    frames += other.frames;
    frames_delivered += other.frames_delivered;
    bits += other.bits;
    bit_errors += other.bit_errors;
    snr_samples += other.snr_samples;
    snr_sum_db += other.snr_sum_db;
    evm_samples += other.evm_samples;
    evm_sum_db += other.evm_sum_db;
    airtime_s += other.airtime_s;
    delivered_bits += other.delivered_bits;
    tag_energy_j += other.tag_energy_j;
    recompute();
}

void link_report::recompute()
{
    ber = bits > 0 ? static_cast<double>(bit_errors) / static_cast<double>(bits) : 0.0;
    per = frames > 0 ? 1.0 - static_cast<double>(frames_delivered) /
                                 static_cast<double>(frames)
                     : 0.0;
    mean_snr_db = snr_samples > 0
                      ? snr_sum_db / static_cast<double>(snr_samples)
                      : -100.0;
    mean_evm_db = evm_samples > 0 ? evm_sum_db / static_cast<double>(evm_samples) : 0.0;
    goodput_bps = airtime_s > 0.0
                      ? static_cast<double>(delivered_bits) / airtime_s
                      : 0.0;
    tag_energy_per_bit_j =
        bits > 0 ? tag_energy_j / static_cast<double>(bits) : 0.0;
}

double link_report::ber_confidence() const
{
    return wilson_half_width(bit_errors, bits);
}

double per_from_ber(double ber, std::size_t frame_bits)
{
    if (!(ber >= 0.0 && ber <= 1.0)) throw std::invalid_argument("per_from_ber: ber outside [0,1]");
    return 1.0 - std::pow(1.0 - ber, static_cast<double>(frame_bits));
}

std::string format_ber(double ber, std::size_t bits_observed)
{
    char buffer[32];
    if (ber <= 0.0) {
        std::snprintf(buffer, sizeof buffer, "<%.1e", 1.0 / std::max<std::size_t>(bits_observed, 1));
    } else {
        std::snprintf(buffer, sizeof buffer, "%.1e", ber);
    }
    return buffer;
}

} // namespace mmtag::core
