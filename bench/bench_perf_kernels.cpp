// Performance microbenchmarks (google-benchmark): throughput of the hot
// kernels — FFT, Viterbi, frame build/decode, one full end-to-end frame
// exchange, and one scale-DES trial. Not a paper figure; used to keep the
// simulator fast enough for the R3-R8 sweeps and the R23 scale runs.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "mmtag/core/link_simulator.hpp"
#include "mmtag/dsp/fft.hpp"
#include "mmtag/fec/convolutional.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/obs/scoped_timer.hpp"
#include "mmtag/obs/trace.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/rf/gaussian_source.hpp"
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

/// `per_call` items per iteration, reported as counter `name`: time per
/// item (the console prints it with an SI prefix, n = ns). The Viterbi
/// benches count decoded information bits as `per_bit`.
void set_per_item_counters(benchmark::State& state, std::size_t per_call, const char* name)
{
    const auto items = static_cast<std::int64_t>(state.iterations()) *
                       static_cast<std::int64_t>(per_call);
    state.SetItemsProcessed(items);
    state.counters[name] = benchmark::Counter(
        static_cast<double>(items), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void bm_viterbi(benchmark::State& state)
{
    const auto bits = phy::random_bits(static_cast<std::size_t>(state.range(0)), 5);
    const auto coded = fec::convolutional_encode(bits, fec::code_rate::half);
    for (auto _ : state) {
        auto decoded = fec::viterbi_decode(coded, fec::code_rate::half);
        benchmark::DoNotOptimize(decoded.data());
    }
    set_per_item_counters(state, bits.size(), "per_bit");
}
BENCHMARK(bm_viterbi)->Arg(512)->Arg(4096);

/// Soft decisions at ~6 dB per coded bit, the regime of a coded link near
/// its waterfall; 4,128 bits is a 512 B frame plus CRC.
void bm_viterbi_soft(benchmark::State& state, fec::code_rate rate)
{
    const auto bits = phy::random_bits(static_cast<std::size_t>(state.range(0)), 5);
    const auto coded = fec::convolutional_encode(bits, rate);
    std::mt19937_64 rng(7);
    std::normal_distribution<double> noise(0.0, 0.5);
    std::vector<double> soft;
    soft.reserve(coded.size());
    for (const std::uint8_t bit : coded) soft.push_back((bit ? -1.0 : 1.0) + noise(rng));
    for (auto _ : state) {
        auto decoded = fec::viterbi_decode_soft(soft, rate);
        benchmark::DoNotOptimize(decoded.data());
    }
    set_per_item_counters(state, bits.size(), "per_bit");
}
BENCHMARK_CAPTURE(bm_viterbi_soft, half, fec::code_rate::half)->Arg(4128);
BENCHMARK_CAPTURE(bm_viterbi_soft, three_quarters, fec::code_rate::three_quarters)->Arg(4128);

/// The N(0,1) draws one RF stage makes per link_long frame: 51,696 samples,
/// an I/Q pair each. Reported as `per_draw`.
constexpr std::size_t link_long_stage_draws = 103'392;

void bm_gaussian_fill(benchmark::State& state)
{
    rf::gaussian_source source(1);
    std::vector<double> draws(link_long_stage_draws);
    for (auto _ : state) {
        source.fill(draws);
        benchmark::DoNotOptimize(draws.data());
    }
    set_per_item_counters(state, draws.size(), "per_draw");
}
BENCHMARK(bm_gaussian_fill);

/// The same draws, bit for bit, one std::normal_distribution call each: the
/// RF chain's cost before rf::gaussian_source.
void bm_gaussian_std_loop(benchmark::State& state)
{
    std::mt19937_64 engine(1);
    std::normal_distribution<double> gaussian{0.0, 1.0};
    std::vector<double> draws(link_long_stage_draws);
    for (auto _ : state) {
        for (double& x : draws) x = gaussian(engine);
        benchmark::DoNotOptimize(draws.data());
    }
    set_per_item_counters(state, draws.size(), "per_draw");
}
BENCHMARK(bm_gaussian_std_loop);

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
