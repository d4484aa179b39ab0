// Tag-side decoder for the AP's PIE command channel. Consumes the envelope
// detector's voltage stream, slices it against an adaptive threshold, times
// the high/low runs, and reassembles command bits — the entire "receiver"
// a backscatter tag can afford.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mmtag/common.hpp"
#include "mmtag/ap/query_encoder.hpp"

namespace mmtag::tag {

class command_decoder {
public:
    struct config {
        double sample_rate_hz = 250e6;
        double unit_s = 2e-6; ///< must match the AP's PIE unit
    };

    explicit command_decoder(const config& cfg);

    struct decoded {
        ap::tag_command command;
        std::size_t end_sample = 0; ///< first sample after the command
    };

    /// Scans a detector-voltage stream for a delimiter and decodes the
    /// command that follows. Returns nullopt when no valid command is found.
    [[nodiscard]] std::optional<decoded> decode(std::span<const double> envelope) const;

    /// Slices an envelope into alternating run lengths (diagnostic).
    struct run {
        bool high = false;
        std::size_t samples = 0;
    };
    [[nodiscard]] std::vector<run> slice(std::span<const double> envelope) const;

private:
    [[nodiscard]] double units(std::size_t samples) const;

    std::size_t unit_samples_;
};

} // namespace mmtag::tag
