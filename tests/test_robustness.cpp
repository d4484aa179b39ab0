// Robustness suite: hostile/garbage inputs must never crash, and the
// integrity layers (CRCs, sync quality gates) must keep false accepts out.
// Also pins down determinism: identical seeds => identical results.
#include <gtest/gtest.h>

#include <random>

#include "mmtag/core/link_simulator.hpp"
#include "mmtag/core/supervised_link.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/fec/convolutional.hpp"
#include "mmtag/fec/hamming.hpp"
#include "mmtag/obs/trace.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/phy/line_code.hpp"
#include "mmtag/phy/preamble.hpp"
#include "mmtag/runtime/thread_pool.hpp"

namespace mmtag {
namespace {

cvec random_symbols(std::size_t count, std::uint64_t seed, double sigma = 1.0)
{
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> g(0.0, sigma);
    cvec out(count);
    for (auto& s : out) s = {g(rng), g(rng)};
    return out;
}

TEST(robustness, frame_decoder_survives_noise_without_false_accepts)
{
    const phy::frame_config cfg{};
    std::size_t false_accepts = 0;
    for (std::uint64_t trial = 0; trial < 300; ++trial) {
        const cvec noise = random_symbols(600, 1000 + trial);
        const auto result = phy::decode_frame(noise, cfg, 1.0);
        if (result && result->crc_ok) ++false_accepts;
    }
    // Header CRC-8 + length plausibility + payload CRC-32 make a false
    // accept essentially impossible.
    EXPECT_EQ(false_accepts, 0u);
}

TEST(robustness, preamble_detector_gates_noise)
{
    std::size_t detections = 0;
    for (std::uint64_t trial = 0; trial < 200; ++trial) {
        const cvec noise = random_symbols(400, 5000 + trial);
        if (phy::detect_preamble(noise, {}, 3.0)) ++detections;
    }
    // At quality >= 3 the m-sequence's sidelobe structure keeps noise out.
    EXPECT_LT(detections, 5u);
}

TEST(robustness, viterbi_handles_random_streams_of_valid_length)
{
    for (std::uint64_t trial = 0; trial < 30; ++trial) {
        const std::size_t info = 50 + trial * 13;
        const auto garbage =
            phy::random_bits(fec::coded_length(info, fec::code_rate::half), trial);
        const auto decoded = fec::viterbi_decode(garbage, fec::code_rate::half);
        EXPECT_EQ(decoded.size(), info); // wrong data, right shape, no crash
    }
}

TEST(robustness, hamming_decoder_any_input)
{
    for (std::uint64_t trial = 0; trial < 50; ++trial) {
        const auto garbage = phy::random_bits(70, 300 + trial);
        EXPECT_NO_THROW((void)fec::hamming74_decode(garbage));
    }
}

TEST(robustness, line_code_decoder_any_input)
{
    std::mt19937_64 rng(31);
    std::normal_distribution<double> g(0.0, 2.0);
    for (auto code : {phy::line_code::fm0, phy::line_code::miller2,
                      phy::line_code::miller4}) {
        std::vector<double> soft(40 * phy::chips_per_bit(code));
        for (auto& v : soft) v = g(rng);
        const auto bits = phy::decode_line_code(soft, code);
        EXPECT_EQ(bits.size(), 40u);
    }
}

TEST(robustness, receiver_on_pure_noise_reports_no_frame)
{
    auto cfg = core::default_scenario();
    cfg.sample_rate_hz = 50e6;
    cfg.symbol_rate_hz = 5e6;
    cfg.transmitter.sample_rate_hz = cfg.sample_rate_hz;
    cfg.receiver.sample_rate_hz = cfg.sample_rate_hz;
    cfg.receiver.samples_per_symbol = 10;
    cfg.receiver.lna.bandwidth_hz = cfg.sample_rate_hz;
    cfg.modulator.sample_rate_hz = cfg.sample_rate_hz;
    ap::ap_receiver receiver(cfg.receiver, 3);

    std::mt19937_64 rng(41);
    std::normal_distribution<double> g(0.0, 1e-6);
    cvec antenna(20000);
    cvec lo(20000, cf64{1.0, 0.0});
    for (auto& s : antenna) s = {g(rng), g(rng)};
    const auto rx = receiver.receive(antenna, lo);
    EXPECT_FALSE(rx.crc_ok);
}

TEST(robustness, zero_length_payload_round_trips)
{
    const phy::frame_config cfg{};
    const cvec symbols = phy::build_frame({}, cfg);
    const std::span<const cf64> frame_span{symbols.data() + cfg.preamble.total_symbols(),
                                           symbols.size() - cfg.preamble.total_symbols()};
    const auto result = phy::decode_frame(frame_span, cfg, 0.05);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->crc_ok);
    EXPECT_TRUE(result->payload.empty());
}

TEST(determinism, identical_seeds_identical_reports)
{
    auto cfg = core::default_scenario();
    cfg.sample_rate_hz = 50e6;
    cfg.symbol_rate_hz = 5e6;
    cfg.transmitter.sample_rate_hz = cfg.sample_rate_hz;
    cfg.receiver.sample_rate_hz = cfg.sample_rate_hz;
    cfg.receiver.samples_per_symbol = 10;
    cfg.receiver.lna.bandwidth_hz = cfg.sample_rate_hz;
    cfg.modulator.sample_rate_hz = cfg.sample_rate_hz;
    cfg.distance_m = 7.0; // noisy regime so determinism is non-trivial

    core::link_simulator a(cfg);
    core::link_simulator b(cfg);
    const auto ra = a.run_trials(6, 32);
    const auto rb = b.run_trials(6, 32);
    EXPECT_DOUBLE_EQ(ra.ber, rb.ber);
    EXPECT_DOUBLE_EQ(ra.mean_snr_db, rb.mean_snr_db);
    EXPECT_DOUBLE_EQ(ra.goodput_bps, rb.goodput_bps);
}

TEST(determinism, fault_replay_reproduces_supervisor_recovery_metrics)
{
    // Identical fault seed + config => the supervised run is bit-reproducible:
    // every recovery metric, the goodput, and the elapsed link clock match
    // across two independent replays.
    const auto run_once = [] {
        auto cfg = core::fast_scenario();
        cfg.distance_m = 4.0;
        cfg.seed = 11;
        fault::fault_schedule::config sched;
        sched.horizon_s = 20e-3;
        sched.event_rate_hz = 300.0;
        sched.mean_duration_s = 1e-3;
        runtime::thread_pool pool(1);
        return core::run_recovery_arms(cfg, {{fault::fault_schedule(sched, 424242), true}},
                                       40, 24, pool)
            .front();
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.frames_offered, b.frames_offered);
    EXPECT_EQ(a.frames_delivered, b.frames_delivered);
    EXPECT_EQ(a.recovery.outages, b.recovery.outages);
    EXPECT_EQ(a.recovery.recoveries, b.recovery.recoveries);
    EXPECT_EQ(a.recovery.reacquisitions, b.recovery.reacquisitions);
    EXPECT_EQ(a.recovery.transmissions, b.recovery.transmissions);
    EXPECT_EQ(a.recovery.probes, b.recovery.probes);
    EXPECT_DOUBLE_EQ(a.recovery.detect_total_s, b.recovery.detect_total_s);
    EXPECT_DOUBLE_EQ(a.recovery.recover_total_s, b.recovery.recover_total_s);
    EXPECT_DOUBLE_EQ(a.elapsed_s, b.elapsed_s);
    EXPECT_DOUBLE_EQ(a.goodput_bps, b.goodput_bps);
}

TEST(supervised_trace, reacquire_instant_carries_the_relock_link_time)
{
    // A supervised reacquisition re-locks the LO at the link time it ends,
    // and the supervisor.reacquire instant must report that same time as
    // the fault.lo_relock instant the relock emits.
    auto cfg = core::fast_scenario();
    cfg.distance_m = 4.0;
    cfg.seed = 11;
    const fault::fault_schedule faults(
        20e-3, {{fault::fault_kind::lo_step, 1e-3, 0.0, 200e3}});
    runtime::thread_pool pool(1);
    obs::tracer::start();
    const auto report = core::run_recovery_arms(cfg, {{faults, true}}, 40, 24, pool).front();
    obs::tracer::stop();
    ASSERT_GT(report.recovery.reacquisitions, 0u);

    // Args are {"link_s": T} and {"time_s": T}, both printed %.6f.
    const auto value = [](const std::string& args) {
        return args.substr(args.find(':') + 1);
    };
    std::vector<std::string> reacquired_at;
    std::vector<std::string> relocked_at;
    for (const auto& event : obs::tracer::events()) {
        if (event.name == "supervisor.reacquire") reacquired_at.push_back(value(event.args));
        if (event.name == "fault.lo_relock") relocked_at.push_back(value(event.args));
    }
    EXPECT_EQ(reacquired_at.size(), report.recovery.reacquisitions);
    EXPECT_EQ(reacquired_at, relocked_at);
}

TEST(determinism, different_seeds_differ)
{
    auto cfg = core::default_scenario();
    cfg.sample_rate_hz = 50e6;
    cfg.symbol_rate_hz = 5e6;
    cfg.transmitter.sample_rate_hz = cfg.sample_rate_hz;
    cfg.receiver.sample_rate_hz = cfg.sample_rate_hz;
    cfg.receiver.samples_per_symbol = 10;
    cfg.receiver.lna.bandwidth_hz = cfg.sample_rate_hz;
    cfg.modulator.sample_rate_hz = cfg.sample_rate_hz;

    core::link_simulator a(cfg);
    cfg.seed = 999;
    core::link_simulator b(cfg);
    const auto payload = phy::random_bytes(32, 5);
    const auto ra = a.run_frame(payload);
    const auto rb = b.run_frame(payload);
    EXPECT_NE(ra.rx.snr_db, rb.rx.snr_db); // different noise draws
}

} // namespace
} // namespace mmtag
