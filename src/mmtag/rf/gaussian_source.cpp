#include "mmtag/rf/gaussian_source.hpp"

#include <algorithm>
#include <cmath>

namespace mmtag::rf {

namespace {

// MT19937-64 parameters, as std::mt19937_64 instantiates them.
constexpr std::size_t mt_n = mt19937_64_block::block_size;
constexpr std::size_t mt_m = 156;
constexpr std::uint64_t mt_matrix = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t mt_upper = ~std::uint64_t{0} << 31;
constexpr std::uint64_t mt_lower = ~mt_upper;

/// One twist step on words a (upper bit) and b (lower 31 bits). The
/// conditional xor of the matrix is a mask, so the twist loops vectorise.
constexpr std::uint64_t twist(std::uint64_t a, std::uint64_t b)
{
    const std::uint64_t y = (a & mt_upper) | (b & mt_lower);
    return (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & mt_matrix);
}

} // namespace

mt19937_64_block::mt19937_64_block(std::uint64_t seed)
{
    state_[0] = seed;
    for (std::size_t i = 1; i < mt_n; ++i) {
        const std::uint64_t previous = state_[i - 1];
        state_[i] = 6364136223846793005ULL * (previous ^ (previous >> 62)) + i;
    }
}

void mt19937_64_block::next_block(std::span<std::uint64_t, block_size> out)
{
    auto& x = state_;
    for (std::size_t k = 0; k < mt_n - mt_m; ++k) x[k] = x[k + mt_m] ^ twist(x[k], x[k + 1]);
    for (std::size_t k = mt_n - mt_m; k < mt_n - 1; ++k) {
        x[k] = x[k + mt_m - mt_n] ^ twist(x[k], x[k + 1]);
    }
    x[mt_n - 1] = x[mt_m - 1] ^ twist(x[mt_n - 1], x[0]);

    for (std::size_t k = 0; k < mt_n; ++k) {
        std::uint64_t z = x[k];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        out[k] = z;
    }
}

gaussian_source::gaussian_source(std::uint64_t seed) : engine_(seed) {}

void gaussian_source::fill(std::span<double> out)
{
    std::size_t done = 0;
    while (done < out.size()) {
        if (next_ == ready_) refill();
        const std::size_t count = std::min(ready_ - next_, out.size() - done);
        std::copy_n(draws_.begin() + static_cast<std::ptrdiff_t>(next_), count,
                    out.begin() + static_cast<std::ptrdiff_t>(done));
        next_ += count;
        done += count;
    }
}

// Marsaglia polar as libstdc++'s normal_distribution runs it: x from the
// first uniform, y from the second; reject r2 > 1 or r2 == 0; m =
// sqrt(-2 log(r2) / r2); return y * m, then the cached x * m.
void gaussian_source::refill()
{
    std::array<std::uint64_t, mt_n> words;
    engine_.next_block(words);

    std::array<double, pairs_per_block> xs;
    std::array<double, pairs_per_block> ys;
    std::array<double, pairs_per_block> r2s;
    for (std::size_t i = 0; i < pairs_per_block; ++i) {
        const double x = 2.0 * unit_interval(words[2 * i]) - 1.0;
        const double y = 2.0 * unit_interval(words[2 * i + 1]) - 1.0;
        xs[i] = x;
        ys[i] = y;
        r2s[i] = x * x + y * y;
    }

    // Keep the accepted pairs in order: every candidate is written at the
    // accepted count, which advances only past the accepted ones.
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < pairs_per_block; ++i) {
        const double x = xs[i];
        const double y = ys[i];
        const double r2 = r2s[i];
        xs[accepted] = x;
        ys[accepted] = y;
        r2s[accepted] = r2;
        accepted += static_cast<std::size_t>(r2 <= 1.0 && r2 != 0.0);
    }

    std::array<double, pairs_per_block> logs;
    for (std::size_t j = 0; j < accepted; ++j) logs[j] = std::log(r2s[j]);
    for (std::size_t j = 0; j < accepted; ++j) {
        const double m = std::sqrt(-2.0 * logs[j] / r2s[j]);
        draws_[2 * j] = ys[j] * m;
        draws_[2 * j + 1] = xs[j] * m;
    }
    next_ = 0;
    ready_ = 2 * accepted;
}

} // namespace mmtag::rf
