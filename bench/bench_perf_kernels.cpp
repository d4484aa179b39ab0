// Performance microbenchmarks (google-benchmark): throughput of the hot
// kernels — FFT, Viterbi, frame build/decode, one full end-to-end frame
// exchange, and one scale-DES trial. Not a paper figure; used to keep the
// simulator fast enough for the R3-R8 sweeps and the R23 scale runs.
#include <benchmark/benchmark.h>

#include "mmtag/core/link_simulator.hpp"
#include "mmtag/dsp/fft.hpp"
#include "mmtag/fec/convolutional.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/obs/scoped_timer.hpp"
#include "mmtag/obs/trace.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/scale/des_engine.hpp"
#include "mmtag/scale/phy_table.hpp"
#include "mmtag/scale/topology.hpp"

using namespace mmtag;

namespace {

void bm_fft(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const dsp::fft_plan plan(n);
    cvec data(n, cf64{1.0, -0.5});
    for (auto _ : state) {
        plan.forward(data);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(bm_fft)->Arg(1024)->Arg(4096)->Arg(16384);

void bm_viterbi(benchmark::State& state)
{
    const auto bits = phy::random_bits(static_cast<std::size_t>(state.range(0)), 5);
    const auto coded = fec::convolutional_encode(bits, fec::code_rate::half);
    for (auto _ : state) {
        auto decoded = fec::viterbi_decode(coded, fec::code_rate::half);
        benchmark::DoNotOptimize(decoded.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(bm_viterbi)->Arg(512)->Arg(4096);

void bm_frame_build(benchmark::State& state)
{
    const auto payload = phy::random_bytes(256, 7);
    const phy::frame_config cfg{};
    for (auto _ : state) {
        auto symbols = phy::build_frame(payload, cfg);
        benchmark::DoNotOptimize(symbols.data());
    }
}
BENCHMARK(bm_frame_build);

void bm_frame_decode(benchmark::State& state)
{
    const auto payload = phy::random_bytes(256, 9);
    const phy::frame_config cfg{};
    const cvec symbols = phy::build_frame(payload, cfg);
    const std::span<const cf64> frame_span{symbols.data() + cfg.preamble.total_symbols(),
                                           symbols.size() - cfg.preamble.total_symbols()};
    for (auto _ : state) {
        auto result = phy::decode_frame(frame_span, cfg, 0.05);
        benchmark::DoNotOptimize(&result);
    }
}
BENCHMARK(bm_frame_decode);

void bm_full_link_frame(benchmark::State& state)
{
    core::link_simulator sim(core::fast_scenario());
    const auto payload = phy::random_bytes(32, 11);
    for (auto _ : state) {
        auto result = sim.run_frame(payload);
        benchmark::DoNotOptimize(&result);
    }
}
BENCHMARK(bm_full_link_frame)->Unit(benchmark::kMillisecond);

// The observability overhead contract: with no registry attached and no
// trace session, the per-frame cost is a couple of null/flag checks —
// compare against bm_full_link_frame (< 3% is the acceptance bar).
void bm_full_link_frame_with_metrics(benchmark::State& state)
{
    core::link_simulator sim(core::fast_scenario());
    obs::metrics_registry metrics;
    sim.attach_metrics(&metrics);
    const auto payload = phy::random_bytes(32, 11);
    for (auto _ : state) {
        auto result = sim.run_frame(payload);
        benchmark::DoNotOptimize(&result);
    }
}
BENCHMARK(bm_full_link_frame_with_metrics)->Unit(benchmark::kMillisecond);

void bm_obs_counter_add(benchmark::State& state)
{
    obs::metrics_registry metrics;
    auto& counter = metrics.get_counter("bench/counter");
    for (auto _ : state) {
        counter.add();
        benchmark::DoNotOptimize(&counter);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_obs_counter_add);

void bm_obs_histogram_observe(benchmark::State& state)
{
    obs::metrics_registry metrics;
    auto& histogram = metrics.get_histogram("bench/snr_db", obs::snr_bounds_db());
    double value = -12.0;
    for (auto _ : state) {
        histogram.observe(value);
        value += 0.37;
        if (value > 45.0) value = -12.0;
        benchmark::DoNotOptimize(&histogram);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_obs_histogram_observe);

void bm_obs_scoped_timer_disabled(benchmark::State& state)
{
    // nullptr registry: the timer must skip both clock reads.
    for (auto _ : state) {
        MMTAG_SCOPED_TIMER(static_cast<obs::metrics_registry*>(nullptr), "time/bench");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_obs_scoped_timer_disabled);

void bm_obs_trace_emit_inactive(benchmark::State& state)
{
    // No session: one relaxed atomic load per emit.
    for (auto _ : state) {
        obs::trace_instant("bench.instant", "bench");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_obs_trace_emit_inactive);

/// One scale-DES trial: 10k tags on 16 APs (grid layout, 10% faulted),
/// 5 rounds, against a coarse phy_table calibrated once, outside the timed
/// loop. Items are DES events, so items/s reads as events/s.
void bm_des_trial(benchmark::State& state)
{
    struct fixture {
        scale::scale_config cfg;
        scale::deployment topo;
        scale::phy_table table;
    };
    static const fixture des = [] {
        scale::scale_config cfg;
        cfg.topology.tag_count = 10'000;
        cfg.topology.ap_count = 16;
        cfg.frames = 5;
        cfg.faulted = 1'000;
        cfg.phy.frames_per_point = 4;
        cfg.phy.scenario = cfg.scenario;
        cfg.phy.payload_bytes = cfg.payload_bytes;
        auto topo = scale::make_deployment(cfg.topology, cfg.scenario);
        auto table = scale::phy_table::generate(cfg.phy, 2);
        return fixture{cfg, std::move(topo), std::move(table)};
    }();
    std::uint64_t events = 0;
    for (auto _ : state) {
        const auto trial = scale::run_scale_trial(des.cfg, des.topo, des.table, 0, nullptr);
        events += trial.events;
        benchmark::DoNotOptimize(trial.event_log_hash);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(bm_des_trial)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
