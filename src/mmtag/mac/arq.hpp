// Plain stop-and-wait ARQ over the backscatter uplink: the AP re-queries a
// tag until a frame passes CRC, up to a fixed number of tries, with no wait
// between them. Simple, and the right fit for a half-duplex query/response
// link where the AP controls every transmission anyway.
//
// This is the one retransmission loop of the "supervisor off" side: R17/R19
// drive it over a Bernoulli link, R21 and `mmtag_sim faults` over the
// sample-accurate link. ap::link_supervisor is the supervised alternative
// (outage detection, backoff, MCS fallback, reacquisition).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mmtag::mac {

/// Tries per frame before plain stop-and-wait ARQ drops it.
inline constexpr std::size_t stop_and_wait_tries = 8;

struct arq_stats {
    std::size_t frames_offered = 0;
    std::size_t frames_delivered = 0;
    std::size_t transmissions = 0;

    [[nodiscard]] double delivery_ratio() const;
};

/// Offers `frame_count` frames. Frame f is sent as `attempt(f, k)` for
/// k = 0, 1, ... until a call returns true (delivered) or
/// stop_and_wait_tries calls have failed.
[[nodiscard]] arq_stats stop_and_wait(
    std::size_t frame_count,
    const std::function<bool(std::size_t frame, std::size_t attempt)>& attempt);

/// The same loop over a Bernoulli link: every try succeeds with probability
/// `frame_success`, one uniform draw per try from a generator seeded with
/// `seed`.
[[nodiscard]] arq_stats stop_and_wait(std::size_t frame_count, double frame_success,
                                      std::uint64_t seed);

} // namespace mmtag::mac
