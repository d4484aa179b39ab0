// The Monte-Carlo sweep runner: fans (sweep point x trial) work out across
// the shard-based thread pool and folds the per-trial aggregates back
// together with a deterministic ordered reduction.
//
// Determinism contract:
//   * every trial runs from a counter-based seed (trial_rng), so its result
//     is independent of scheduling;
//   * per-trial results land in pre-allocated slots (no shared accumulator);
//   * the reduction folds trials strictly in (point, trial) order on the
//     calling thread.
// Together these make the aggregates bit-identical for any --jobs value —
// the regression test asserts byte-identical JSON between jobs=1 and jobs=8.
//
// The Aggregate type must be default-constructible and provide
// merge(const Aggregate&) — core::error_counter and core::link_report do —
// or a custom merge functor can be supplied.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mmtag/obs/trace.hpp"
#include "mmtag/runtime/thread_pool.hpp"
#include "mmtag/runtime/trial_rng.hpp"

namespace mmtag::runtime {

struct sweep_options {
    std::size_t jobs = 1;            ///< executors; 0 = hardware_concurrency
    std::uint64_t base_seed = 1;     ///< root of every trial's RNG stream
    std::size_t trials_per_point = 1;
    /// Called after every completed trial with (trials_done, trials_total).
    /// Runs on worker threads — must be thread-safe. Optional.
    std::function<void(std::size_t, std::size_t)> progress;
};

template <typename Aggregate>
struct sweep_point_outcome {
    Aggregate aggregate{};   ///< ordered fold of the point's trials
};

template <typename Aggregate>
struct sweep_outcome {
    std::vector<sweep_point_outcome<Aggregate>> points;
    std::size_t jobs = 1;    ///< executors actually used
    std::size_t trials = 0;  ///< points x trials_per_point
};

/// A ready-made thread-safe progress callback writing to `stream`. In tty
/// mode it rewrites one line ("sweep: 42/96 trials") and terminates it with
/// a newline on completion; otherwise it prints one plain newline-terminated
/// line per completed decile, so CI logs and trace files never see '\r'
/// frames.
[[nodiscard]] std::function<void(std::size_t, std::size_t)>
progress_printer(std::FILE* stream, bool tty);

/// progress_printer on stderr, tty-detected via isatty.
[[nodiscard]] std::function<void(std::size_t, std::size_t)> stderr_progress();

/// Runs trial(point, trial_index, seed) for every point in [0, point_count)
/// and every trial in [0, trials_per_point), reduced per point with
/// merge(into, from) in (point, trial) order.
template <typename Aggregate, typename TrialFn, typename MergeFn>
sweep_outcome<Aggregate> run_sweep(const sweep_options& options, std::size_t point_count,
                                   TrialFn&& trial, MergeFn&& merge)
{
    if (options.trials_per_point == 0) {
        throw std::invalid_argument("run_sweep: trials_per_point must be >= 1");
    }
    thread_pool pool(options.jobs);
    const std::size_t trials = options.trials_per_point;
    const std::size_t total = point_count * trials;
    std::vector<Aggregate> slots(total);
    std::atomic<std::size_t> completed{0};

    pool.parallel_for(total, [&](std::size_t index) {
        const std::size_t point = index / trials;
        const std::size_t t = index % trials;
        const double trace_start_us = obs::tracer::active() ? obs::tracer::now_us() : -1.0;
        slots[index] = trial(point, t, trial_seed(options.base_seed, point, t));
        if (trace_start_us >= 0.0) {
            char args[64];
            std::snprintf(args, sizeof args, "{\"point\": %zu, \"trial\": %zu}", point, t);
            obs::trace_emit("sweep.trial", "sweep", 'X', trace_start_us,
                            obs::tracer::now_us() - trace_start_us, args);
        }
        if (options.progress) {
            const std::size_t done = completed.fetch_add(1, std::memory_order_relaxed) + 1;
            options.progress(done, total);
        }
    });

    sweep_outcome<Aggregate> outcome;
    outcome.jobs = pool.jobs();
    outcome.trials = total;
    outcome.points.resize(point_count);
    for (std::size_t point = 0; point < point_count; ++point) {
        if (obs::tracer::active()) {
            char args[48];
            std::snprintf(args, sizeof args, "{\"point\": %zu, \"trials\": %zu}", point,
                          trials);
            obs::trace_instant("sweep.point", "sweep", args);
        }
        auto& slot = outcome.points[point];
        slot.aggregate = std::move(slots[point * trials]);
        for (std::size_t t = 1; t < trials; ++t) merge(slot.aggregate, slots[point * trials + t]);
    }
    return outcome;
}

/// Convenience overload: Aggregate provides merge(const Aggregate&).
template <typename Aggregate, typename TrialFn>
sweep_outcome<Aggregate> run_sweep(const sweep_options& options, std::size_t point_count,
                                   TrialFn&& trial)
{
    return run_sweep<Aggregate>(options, point_count, std::forward<TrialFn>(trial),
                                [](Aggregate& into, const Aggregate& from) {
                                    into.merge(from);
                                });
}

} // namespace mmtag::runtime
