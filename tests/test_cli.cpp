#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mmtag/cli/commands.hpp"
#include "mmtag/cli/options.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/runtime/json_io.hpp"

#include "../bench/experiments.hpp"
#include "json_checker.hpp"

namespace mmtag::cli {
namespace {

option_set parse(std::initializer_list<const char*> args)
{
    std::vector<const char*> argv{"mmtag_sim"};
    argv.insert(argv.end(), args.begin(), args.end());
    return option_set::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(options, parses_subcommand_and_pairs)
{
    const auto opts = parse({"link", "--distance", "3.5", "--frames", "7"});
    EXPECT_DOUBLE_EQ(opts.get_double("distance", 0.0), 3.5);
    EXPECT_EQ(opts.get_uint("frames", 0), 7u);
}

TEST(options, equals_form)
{
    const auto opts = parse({"budget", "--tx-power=30", "--points=5"});
    EXPECT_DOUBLE_EQ(opts.get_double("tx-power", 0.0), 30.0);
    EXPECT_EQ(opts.get_uint("points", 0), 5u);
}

TEST(options, defaults_when_absent)
{
    const auto opts = parse({"link"});
    EXPECT_DOUBLE_EQ(opts.get_double("distance", 2.0), 2.0);
    EXPECT_EQ(opts.get_string("scheme", "qpsk"), "qpsk");
    EXPECT_FALSE(opts.get_flag("csv"));
}

TEST(options, bare_flag)
{
    const auto opts = parse({"link", "--csv"});
    EXPECT_TRUE(opts.get_flag("csv"));
}

TEST(options, bare_key_is_a_flag_not_a_value)
{
    const auto opts = parse({"soak", "--json", "--csv", "--seed", "--jobs"});
    EXPECT_TRUE(opts.get_flag("csv"));
    EXPECT_EQ(opts.get_flag_or_string("json").value_or("absent"), "");
    try {
        (void)opts.get_string("json", "");
        ADD_FAILURE() << "bare --json read as a value";
    } catch (const std::invalid_argument& error) {
        EXPECT_STREQ(error.what(), "--json needs a value");
    }
    EXPECT_THROW((void)opts.get_uint("seed", 1), std::invalid_argument);
    EXPECT_THROW((void)opts.get_double("jobs", 1.0), std::invalid_argument);
    // `--metrics true` and `--metrics=true` mean bare (print, no file "true").
    EXPECT_EQ(parse({"soak", "--metrics", "true"}).get_flag_or_string("metrics"), "");
    EXPECT_EQ(parse({"soak", "--metrics=true"}).get_flag_or_string("metrics"), "");
    EXPECT_EQ(parse({"soak", "--metrics=m.json"}).get_flag_or_string("metrics"), "m.json");
    EXPECT_FALSE(parse({"soak"}).get_flag_or_string("metrics").has_value());
}

TEST(options, rejects_malformed_input)
{
    EXPECT_THROW(parse({"link", "distance", "3"}), std::invalid_argument);
    EXPECT_THROW(parse({"link", "--d", "1", "--d", "2"}), std::invalid_argument);
}

TEST(options, rejects_bad_numbers)
{
    const auto opts = parse({"link", "--distance", "abc", "--frames", "2.5"});
    EXPECT_THROW((void)opts.get_double("distance", 0.0), std::invalid_argument);
    EXPECT_THROW((void)opts.get_uint("frames", 0), std::invalid_argument);
    for (const char* non_finite : {"nan", "inf", "-inf"}) {
        const auto parsed = parse({"link", "--distance", non_finite});
        EXPECT_THROW((void)parsed.get_double("distance", 0.0), std::invalid_argument)
            << non_finite;
    }
}

TEST(options, tracks_unconsumed_keys)
{
    const auto opts = parse({"link", "--distance", "2", "--typo", "1"});
    (void)opts.get_double("distance", 0.0);
    const auto leftover = opts.unconsumed();
    ASSERT_EQ(leftover.size(), 1u);
    EXPECT_EQ(leftover.front(), "typo");
}

TEST(options, modulation_and_fec_names)
{
    EXPECT_EQ(phy::parse_modulation("bpsk"), phy::modulation::bpsk);
    EXPECT_EQ(phy::parse_modulation("16psk"), phy::modulation::psk16);
    EXPECT_THROW((void)phy::parse_modulation("qam64"), std::invalid_argument);
    EXPECT_EQ(phy::parse_fec("none"), phy::fec_mode::uncoded);
    EXPECT_EQ(phy::parse_fec("3/4"), phy::fec_mode::conv_three_quarters);
    EXPECT_THROW((void)phy::parse_fec("7/8"), std::invalid_argument);
}

TEST(commands, dispatch_help_and_unknown)
{
    const char* help[] = {"mmtag_sim", "help"};
    EXPECT_EQ(dispatch(2, help), 0);
    const char* unknown[] = {"mmtag_sim", "frobnicate"};
    EXPECT_EQ(dispatch(2, unknown), 1);
    const char* missing[] = {"mmtag_sim"};
    EXPECT_EQ(dispatch(1, missing), 1);
}

TEST(commands, link_runs_and_rejects_typos)
{
    const char* ok[] = {"mmtag_sim", "link", "--frames", "2", "--payload", "16"};
    EXPECT_EQ(dispatch(6, ok), 0);
    const char* typo[] = {"mmtag_sim", "link", "--distnace", "2"};
    EXPECT_EQ(dispatch(4, typo), 1);
}

TEST(commands, budget_runs)
{
    const char* argv[] = {"mmtag_sim", "budget", "--points", "3"};
    EXPECT_EQ(dispatch(4, argv), 0);
}

TEST(commands, inventory_runs)
{
    const char* argv[] = {"mmtag_sim", "inventory", "--tags", "10", "--seeds", "3"};
    EXPECT_EQ(dispatch(6, argv), 0);
}

TEST(commands, network_runs)
{
    const char* argv[] = {"mmtag_sim", "network", "--tags", "5"};
    EXPECT_EQ(dispatch(4, argv), 0);
}

TEST(commands, link_presets)
{
    const char* warehouse[] = {"mmtag_sim", "link", "--preset", "warehouse",
                               "--frames", "2"};
    EXPECT_EQ(dispatch(6, warehouse), 0);
    const char* wearable[] = {"mmtag_sim", "link", "--preset", "wearable",
                              "--frames", "2"};
    EXPECT_EQ(dispatch(6, wearable), 0);
    const char* bogus[] = {"mmtag_sim", "link", "--preset", "garage"};
    EXPECT_EQ(dispatch(4, bogus), 1);
}

TEST(commands, sweep_runs_and_rejects_typos)
{
    const char* ok[] = {"mmtag_sim", "sweep", "--points", "2", "--trials", "2",
                        "--frames", "1", "--jobs", "2"};
    EXPECT_EQ(dispatch(10, ok), 0);
    const char* typo[] = {"mmtag_sim", "sweep", "--trails", "2"};
    EXPECT_EQ(dispatch(4, typo), 1);
    const char* zero[] = {"mmtag_sim", "sweep", "--points", "0"};
    EXPECT_EQ(dispatch(4, zero), 1);
}

TEST(commands, faults_multi_trial_runs)
{
    const char* argv[] = {"mmtag_sim", "faults", "--frames", "20", "--trials", "2",
                          "--jobs", "2"};
    const int code = dispatch(8, argv);
    EXPECT_TRUE(code == 0 || code == 2) << code;
}

TEST(options, get_uint_strict_parsing)
{
    const auto good = parse({"sweep", "--trials", "250", "--jobs=0"});
    EXPECT_EQ(good.get_uint("trials", 1), 250u);
    EXPECT_EQ(good.get_uint("jobs", 4), 0u);
    EXPECT_EQ(good.get_uint("absent", 7), 7u);

    // Values stoull would silently accept as the wrong number.
    const auto bad = parse({"sweep", "--jobs=-1", "--trials=1e3", "--seed=12x",
                            "--points=+5", "--frames="});
    EXPECT_THROW((void)bad.get_uint("jobs", 0), std::invalid_argument);
    EXPECT_THROW((void)bad.get_uint("trials", 0), std::invalid_argument);
    EXPECT_THROW((void)bad.get_uint("seed", 0), std::invalid_argument);
    EXPECT_THROW((void)bad.get_uint("points", 0), std::invalid_argument);
    EXPECT_THROW((void)bad.get_uint("frames", 0), std::invalid_argument);

    const auto overflow = parse({"sweep", "--seed=99999999999999999999999999"});
    EXPECT_THROW((void)overflow.get_uint("seed", 0), std::invalid_argument);
}

TEST(commands, rejects_malformed_counts_with_exit_1)
{
    const char* neg[] = {"mmtag_sim", "sweep", "--jobs=-1"};
    EXPECT_EQ(dispatch(3, neg), 1);
    const char* sci[] = {"mmtag_sim", "sweep", "--trials=1e3"};
    EXPECT_EQ(dispatch(3, sci), 1);
    const char* junk[] = {"mmtag_sim", "faults", "--seed=12x"};
    EXPECT_EQ(dispatch(3, junk), 1);
    const char* frames[] = {"mmtag_sim", "link", "--frames=-5"};
    EXPECT_EQ(dispatch(3, frames), 1);
}

TEST(commands, sweep_emits_metrics_trace_and_v2_results)
{
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_obs_test";
    fs::create_directories(dir);
    const std::string metrics_arg = "--metrics=" + (dir / "metrics.json").string();
    const std::string trace_arg = "--trace=" + (dir / "trace.json").string();
    const std::string json_arg = "--json=" + (dir / "result.json").string();
    const char* argv[] = {"mmtag_sim", "sweep",  "--points",         "2",
                          "--trials",  "2",      "--frames",         "1",
                          "--jobs",    "2",      metrics_arg.c_str(), trace_arg.c_str(),
                          json_arg.c_str()};
    EXPECT_EQ(dispatch(13, argv), 0);

    auto read_file = [](const fs::path& path) {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    };

    const auto metrics_text = read_file(dir / "metrics.json");
    EXPECT_TRUE(testutil::json_checker(metrics_text).valid()) << metrics_text;
    EXPECT_NE(metrics_text.find("link/frames"), std::string::npos);
    // Standalone metrics files hold the deterministic view only.
    EXPECT_EQ(metrics_text.find("time/"), std::string::npos);

    const auto trace_text = read_file(dir / "trace.json");
    EXPECT_TRUE(testutil::json_checker(trace_text).valid());
    EXPECT_NE(trace_text.find("traceEvents"), std::string::npos);
    EXPECT_NE(trace_text.find("sweep.trial"), std::string::npos);
    EXPECT_NE(trace_text.find("link.frame"), std::string::npos);

    const auto result_text = read_file(dir / "result.json");
    EXPECT_TRUE(testutil::json_checker(result_text).valid());
    EXPECT_NE(result_text.find("mmtag.bench.result/2"), std::string::npos);
    EXPECT_NE(result_text.find("\"metrics\""), std::string::npos);
    EXPECT_NE(result_text.find("\"profile\""), std::string::npos);
    fs::remove_all(dir);
}

TEST(commands, sweep_without_metrics_keeps_v1_schema)
{
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_v1_test";
    fs::create_directories(dir);
    const std::string json_arg = "--json=" + (dir / "result.json").string();
    const char* argv[] = {"mmtag_sim", "sweep", "--points", "2", "--trials", "1",
                          "--frames", "1", json_arg.c_str()};
    EXPECT_EQ(dispatch(9, argv), 0);
    std::ifstream in(dir / "result.json");
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto text = buffer.str();
    EXPECT_NE(text.find("mmtag.bench.result/1"), std::string::npos);
    // Per-point "metrics" objects are part of /1; the sweep-wide registry
    // snapshot ("counters"/"histograms" sections) must not be.
    EXPECT_EQ(text.find("\"counters\""), std::string::npos);
    fs::remove_all(dir);
}

TEST(commands, sweep_bare_metrics_prints_the_snapshot)
{
    // Like the other commands, a bare --metrics prints the snapshot that
    // --metrics=FILE writes.
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_sweep_bare_metrics";
    fs::create_directories(dir);
    const std::string metrics_arg = "--metrics=" + (dir / "metrics.json").string();
    const char* to_file[] = {"mmtag_sim", "sweep",  "--points", "2", "--trials",
                             "1",         "--frames", "1",      metrics_arg.c_str()};
    EXPECT_EQ(dispatch(9, to_file), 0);
    const auto metrics_text = runtime::read_text_file((dir / "metrics.json").string());
    ASSERT_TRUE(metrics_text.has_value());
    EXPECT_NE(metrics_text->find("link/frames"), std::string::npos);

    const char* to_stdout[] = {"mmtag_sim", "sweep",  "--points", "2", "--trials",
                               "1",         "--frames", "1",      "--metrics"};
    testing::internal::CaptureStdout();
    const int code = dispatch(9, to_stdout);
    const std::string printed = testing::internal::GetCapturedStdout();
    EXPECT_EQ(code, 0);
    EXPECT_NE(printed.find("metrics:\n" + *metrics_text), std::string::npos) << printed;
    fs::remove_all(dir);
}

TEST(commands, faults_accepts_metrics_and_trace)
{
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_faults_obs";
    fs::create_directories(dir);
    const std::string metrics_arg = "--metrics=" + (dir / "metrics.json").string();
    const std::string trace_arg = "--trace=" + (dir / "trace.json").string();
    const char* argv[] = {"mmtag_sim", "faults", "--frames", "20", "--trials", "2",
                          "--jobs", "2", metrics_arg.c_str(), trace_arg.c_str()};
    const int code = dispatch(10, argv);
    EXPECT_TRUE(code == 0 || code == 2) << code;

    std::ifstream in(dir / "metrics.json");
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto metrics_text = buffer.str();
    EXPECT_TRUE(testutil::json_checker(metrics_text).valid()) << metrics_text;
    EXPECT_NE(metrics_text.find("link/frames"), std::string::npos);
    EXPECT_NE(metrics_text.find("supervisor/"), std::string::npos);
    EXPECT_TRUE(fs::exists(dir / "trace.json"));
    fs::remove_all(dir);
}

TEST(commands, soak_runs_and_reports_via_exit_code)
{
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_soak_test";
    fs::create_directories(dir);
    const std::string json_arg = "--json=" + (dir / "soak.json").string();
    const std::string metrics_arg = "--metrics=" + (dir / "metrics.json").string();
    const char* argv[] = {"mmtag_sim", "soak",     "--tags",   "4",
                          "--faulted", "1",        "--rounds", "36",
                          "--trials",  "1",        "--jobs",   "2",
                          json_arg.c_str(),        metrics_arg.c_str()};
    // 0 = every invariant held, 3 = one tripped; both mean the harness ran.
    const int code = dispatch(14, argv);
    EXPECT_TRUE(code == 0 || code == 3) << code;

    std::ifstream in(dir / "soak.json");
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto text = buffer.str();
    EXPECT_TRUE(testutil::json_checker(text).valid()) << text;
    EXPECT_NE(text.find("mmtag.soak.result/1"), std::string::npos);
    EXPECT_NE(text.find("\"invariants\""), std::string::npos);

    std::ifstream metrics_in(dir / "metrics.json");
    std::stringstream metrics_buffer;
    metrics_buffer << metrics_in.rdbuf();
    const auto metrics_text = metrics_buffer.str();
    EXPECT_TRUE(testutil::json_checker(metrics_text).valid()) << metrics_text;
    EXPECT_NE(metrics_text.find("net/rounds"), std::string::npos);
    fs::remove_all(dir);
}

TEST(commands, soak_rejects_bad_arguments_with_exit_1)
{
    const char* typo[] = {"mmtag_sim", "soak", "--tgs", "4"};
    EXPECT_EQ(dispatch(4, typo), 1);
    const char* zero[] = {"mmtag_sim", "soak", "--rounds", "0"};
    EXPECT_EQ(dispatch(4, zero), 1);
    const char* lopsided[] = {"mmtag_sim", "soak", "--tags", "2", "--faulted", "3"};
    EXPECT_EQ(dispatch(6, lopsided), 1);
}

TEST(commands, bare_valued_option_exits_1_and_writes_nothing)
{
    // A bare --json/--trace used to be read as the path "true".
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_bare_test";
    fs::create_directories(dir);
    const auto cwd = fs::current_path();
    fs::current_path(dir);
    const char* soak[] = {"mmtag_sim", "soak", "--tags", "2", "--faulted", "1",
                          "--trials", "1", "--json"};
    EXPECT_EQ(dispatch(9, soak), 1);
    const char* scale[] = {"mmtag_sim", "scale", "--tags", "200", "--aps", "2", "--trace"};
    EXPECT_EQ(dispatch(7, scale), 1);
    fs::current_path(cwd);
    EXPECT_FALSE(fs::exists(dir / "true"));
    fs::remove_all(dir);
}

TEST(commands, scale_writes_result_and_one_metrics_snapshot)
{
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_scale_test";
    fs::create_directories(dir);
    const std::string json_arg = "--json=" + (dir / "scale.json").string();
    const std::string metrics_arg = "--metrics=" + (dir / "metrics.json").string();
    const char* to_file[] = {"mmtag_sim", "scale", "--tags", "200", "--aps", "2",
                             "--trials", "1", "--jobs", "2", json_arg.c_str(),
                             metrics_arg.c_str()};
    EXPECT_EQ(dispatch(12, to_file), 0);

    const auto result_text = runtime::read_text_file((dir / "scale.json").string());
    ASSERT_TRUE(result_text.has_value());
    EXPECT_TRUE(testutil::json_checker(*result_text).valid()) << *result_text;
    EXPECT_NE(result_text->find("mmtag.scale.result/1"), std::string::npos);

    const auto metrics_text = runtime::read_text_file((dir / "metrics.json").string());
    ASSERT_TRUE(metrics_text.has_value());
    EXPECT_TRUE(testutil::json_checker(*metrics_text).valid()) << *metrics_text;
    EXPECT_NE(metrics_text->find("scale/delivered"), std::string::npos);

    // A bare --metrics prints the very snapshot --metrics=FILE writes (the
    // file ends in the newline the printed copy carries).
    const char* to_stdout[] = {"mmtag_sim", "scale", "--tags", "200", "--aps", "2",
                               "--trials", "1", "--jobs", "2", "--metrics"};
    testing::internal::CaptureStdout();
    const int code = dispatch(11, to_stdout);
    const std::string printed = testing::internal::GetCapturedStdout();
    EXPECT_EQ(code, 0);
    EXPECT_NE(printed.find("metrics:\n" + *metrics_text), std::string::npos)
        << printed;

    const char* typo[] = {"mmtag_sim", "scale", "--tgs", "200"};
    EXPECT_EQ(dispatch(4, typo), 1);
    fs::remove_all(dir);
}

TEST(commands, scale_rejects_zero_frames)
{
    // Zero rounds is bad input: it fails loudly instead of running a round.
    const char* argv[] = {"mmtag_sim", "scale", "--tags", "50", "--aps", "2", "--frames", "0"};
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int code = dispatch(8, argv);
    const std::string errors = testing::internal::GetCapturedStderr();
    const std::string printed = testing::internal::GetCapturedStdout();
    EXPECT_EQ(code, 1);
    EXPECT_EQ(errors.rfind("error: run_scale: frames must be >= 1\n", 0), 0u) << errors;
    EXPECT_EQ(printed.find("delivered"), std::string::npos) << printed;
}

/// Runs mmtag_sim with `args`; returns the exit code and the stderr text.
std::pair<int, std::string> dispatch_capturing_errors(std::vector<const char*> args)
{
    args.insert(args.begin(), "mmtag_sim");
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int code = dispatch(static_cast<int>(args.size()), args.data());
    std::string errors = testing::internal::GetCapturedStderr();
    (void)testing::internal::GetCapturedStdout();
    return {code, std::move(errors)};
}

TEST(commands, a_flag_in_place_of_the_command_is_an_unknown_command)
{
    const auto [code, errors] = dispatch_capturing_errors({"--link"});
    EXPECT_EQ(code, 1);
    EXPECT_EQ(errors, "error: unknown command '--link' (mmtag_sim help lists them)\n");
}

TEST(commands, scale_rejects_zero_tags)
{
    const auto [code, errors] = dispatch_capturing_errors({"scale", "--tags", "0"});
    EXPECT_EQ(code, 1);
    EXPECT_EQ(errors.rfind("error: topology: no tags\n", 0), 0u) << errors;
}

TEST(commands, link_rejects_zero_frames_and_zero_payload)
{
    const auto [frames_code, frames_errors] = dispatch_capturing_errors({"link", "--frames", "0"});
    EXPECT_EQ(frames_code, 1);
    EXPECT_EQ(frames_errors.rfind("error: --frames must be >= 1\n", 0), 0u) << frames_errors;
    const auto [payload_code, payload_errors] =
        dispatch_capturing_errors({"link", "--payload", "0"});
    EXPECT_EQ(payload_code, 1);
    EXPECT_EQ(payload_errors.rfind("error: --payload must be >= 1\n", 0), 0u) << payload_errors;
}

TEST(commands, faults_rejects_zero_payload)
{
    const auto [code, errors] = dispatch_capturing_errors({"faults", "--payload", "0"});
    EXPECT_EQ(code, 1);
    EXPECT_EQ(errors.rfind("error: --payload must be >= 1\n", 0), 0u) << errors;
}

TEST(commands, sweep_rejects_zero_payload)
{
    // Zero payload used to exit 0 with a row of 0 bits, BER 0 and goodput 0.
    const auto [code, errors] = dispatch_capturing_errors({"sweep", "--payload", "0"});
    EXPECT_EQ(code, 1);
    EXPECT_EQ(errors, "error: --payload must be >= 1\n");
}

TEST(commands, inventory_rejects_zero_tags)
{
    // Zero tags used to exit 0 and print "mean efficiency 0.000".
    const auto [code, errors] = dispatch_capturing_errors({"inventory", "--tags", "0"});
    EXPECT_EQ(code, 1);
    EXPECT_EQ(errors.rfind("error: --tags must be >= 1\n", 0), 0u) << errors;
}

TEST(commands, faults_rejects_non_finite_fault_rate)
{
    // An unchecked "inf" or "1e9" appends schedule events until memory runs
    // out ("inf": every Poisson gap draws 0). "nan" goes first and is
    // asserted, so a parser that accepts it stops the test before them.
    for (const char* rate : {"nan", "inf"}) {
        const auto [code, errors] = dispatch_capturing_errors({"faults", "--fault-rate", rate});
        ASSERT_EQ(code, 1) << rate;
        const std::string expected =
            std::string("error: --fault-rate expects a number, got '") + rate + "'\n";
        EXPECT_EQ(errors.rfind(expected, 0), 0u) << errors;
    }
    const auto [code, errors] = dispatch_capturing_errors({"faults", "--fault-rate", "1e9"});
    EXPECT_EQ(code, 1);
    EXPECT_EQ(errors.rfind("error: fault_schedule: event rate x horizon above 1e6", 0), 0u)
        << errors;
}

TEST(commands, unwritable_trace_path_warns_once)
{
    // A regular file where the trace's parent directory should be: neither
    // the directory nor the file can be created.
    namespace fs = std::filesystem;
    const auto blocker = fs::temp_directory_path() / "mmtag_cli_trace_blocker";
    std::ofstream(blocker) << "not a directory\n";
    const std::string trace_arg = "--trace=" + (blocker / "t.json").string();
    const char* argv[] = {"mmtag_sim", "sweep", "--points", "1", "--trials", "1",
                          "--frames", "1", trace_arg.c_str()};
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int code = dispatch(9, argv);
    const std::string errors = testing::internal::GetCapturedStderr();
    (void)testing::internal::GetCapturedStdout();
    EXPECT_EQ(code, 0);
    const std::string warning = "warning: cannot write " + (blocker / "t.json").string();
    const auto first = errors.find(warning);
    ASSERT_NE(first, std::string::npos) << errors;
    EXPECT_EQ(errors.find(warning, first + 1), std::string::npos) << errors;
    fs::remove(blocker);
}

/// A result file without the "run" section the driver appends last.
std::string without_run(const std::string& text)
{
    const auto run = text.rfind(",\n  \"run\": {");
    EXPECT_NE(run, std::string::npos) << text;
    return text.substr(0, run) + "\n}\n";
}

/// Checks that `text` parses and that its "run" section holds exactly the
/// driver's keys, with `jobs` executors.
void expect_run_section(const std::string& text, std::uint64_t jobs)
{
    const auto doc = runtime::parse_json(text);
    ASSERT_TRUE(doc.has_value()) << text;
    const auto* run = doc->find("run");
    ASSERT_NE(run, nullptr) << text;
    EXPECT_EQ(run->size(), 4u) << text;
    for (const char* key : {"wall_s", "trials_per_s", "git"}) {
        EXPECT_NE(run->find(key), nullptr) << key << " in " << text;
    }
    ASSERT_NE(run->find("jobs"), nullptr) << text;
    EXPECT_EQ(run->find("jobs")->as_uint(), jobs) << text;
}

TEST(commands, scale_times_setup_and_trials_apart_from_the_result)
{
    // events/s is over trial time only, so a cold phy_table calibration
    // cannot drag it down; the timings stay out of the deterministic half.
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_scale_timing_test";
    fs::create_directories(dir);
    std::vector<std::string> results;
    for (const char* name : {"first.json", "second.json"}) {
        const std::string json_arg = "--json=" + (dir / name).string();
        const char* argv[] = {"mmtag_sim", "scale", "--tags", "200", "--aps", "2",
                              "--trials", "2", json_arg.c_str()};
        testing::internal::CaptureStdout();
        const int code = dispatch(9, argv);
        const std::string printed = testing::internal::GetCapturedStdout();
        EXPECT_EQ(code, 0);
        const auto runtime_line = printed.find("  runtime: set-up ");
        ASSERT_NE(runtime_line, std::string::npos) << printed;
        EXPECT_NE(printed.find(" s, 2 tasks in ", runtime_line), std::string::npos) << printed;
        EXPECT_NE(printed.find(" events/s)", runtime_line), std::string::npos) << printed;
        const auto text = runtime::read_text_file((dir / name).string());
        ASSERT_TRUE(text.has_value());
        const std::string deterministic = without_run(*text);
        EXPECT_EQ(deterministic.find("setup"), std::string::npos);
        EXPECT_EQ(deterministic.find("trials_s"), std::string::npos);
        results.push_back(deterministic);
    }
    EXPECT_EQ(results[0], results[1]);
    fs::remove_all(dir);
}

TEST(commands, result_documents_are_jobs_invariant_outside_run)
{
    // Each Monte-Carlo command that writes a result file: the document less
    // its "run" section is byte-equal at --jobs 1 and 4, and "run" holds
    // exactly the driver's keys.
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "mmtag_cli_jobs_invariance_test";
    fs::create_directories(dir);
    const std::vector<std::vector<std::string>> rows = {
        {"sweep", "--points", "2", "--trials", "3", "--frames", "1"},
        {"soak", "--tags", "4", "--faulted", "1", "--rounds", "36", "--trials", "2"},
        {"scale", "--tags", "200", "--aps", "2", "--frames", "10", "--trials", "3"},
    };
    for (const auto& row : rows) {
        std::vector<std::string> documents;
        for (const std::uint64_t jobs : {1u, 4u}) {
            const std::string path = (dir / (row[0] + std::to_string(jobs) + ".json")).string();
            std::vector<std::string> args{"mmtag_sim"};
            args.insert(args.end(), row.begin(), row.end());
            args.insert(args.end(), {"--jobs", std::to_string(jobs), "--json", path});
            std::vector<const char*> argv;
            for (const auto& arg : args) argv.push_back(arg.c_str());
            testing::internal::CaptureStdout();
            const int code = dispatch(static_cast<int>(argv.size()), argv.data());
            (void)testing::internal::GetCapturedStdout();
            EXPECT_TRUE(code == 0 || (row[0] == "soak" && code == 3)) << row[0] << ": " << code;
            const auto text = runtime::read_text_file(path);
            ASSERT_TRUE(text.has_value()) << path;
            expect_run_section(*text, jobs);
            documents.push_back(without_run(*text));
        }
        EXPECT_EQ(documents[0], documents[1]) << row[0];
    }
    fs::remove_all(dir);
}

struct captured_run {
    int code;
    std::string out;
    std::string errors;
};

/// Runs one front end with `args`; returns the exit code, stdout and stderr.
template <typename Front>
captured_run run_capturing(Front front, std::vector<std::string> args)
{
    args.insert(args.begin(), "front_end");
    std::vector<const char*> argv;
    for (const auto& arg : args) argv.push_back(arg.c_str());
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int code = front(static_cast<int>(argv.size()), argv.data());
    std::string errors = testing::internal::GetCapturedStderr();
    return {code, testing::internal::GetCapturedStdout(), std::move(errors)};
}

template <typename Front>
void check_every_row(std::span<const command> table, Front front, int bad_input_status)
{
    for (const auto& row : table) {
        // An unlisted flag stops the driver before the row prints anything.
        const auto unlisted = run_capturing(front, {row.name, "--no-such-flag"});
        EXPECT_EQ(unlisted.code, bad_input_status) << row.name;
        EXPECT_EQ(unlisted.out, "") << row.name;
        EXPECT_EQ(unlisted.errors, "error: unknown option --no-such-flag\n") << row.name;

        // A listed flag given junk fails naming that flag, so the row reads
        // it. A free-form path takes any value.
        for (const auto& flag : row.flags) {
            if (flag == "json" || flag == "trace" || flag == "metrics") continue;
            const auto junk = run_capturing(front, {row.name, "--" + flag, "junk"});
            const std::string named = "error: --" + flag;
            EXPECT_EQ(junk.code, bad_input_status) << row.name << " --" << flag;
            ASSERT_EQ(junk.errors.rfind(named, 0), 0u) << row.name << ": " << junk.errors;
            EXPECT_NE(std::string(" :").find(junk.errors.at(named.size())), std::string::npos)
                << row.name << ": " << junk.errors;
            EXPECT_EQ(std::count(junk.errors.begin(), junk.errors.end(), '\n'), 1)
                << row.name << ": " << junk.errors;
        }
    }
}

TEST(front_ends, every_row_rejects_unlisted_flags_and_reads_each_listed_one)
{
    check_every_row(commands(), dispatch, 1);
    check_every_row(
        bench::experiments(),
        [](int argc, const char* const* argv) {
            return bench::run(argc, argv, bench::experiments());
        },
        2);
}

TEST(front_ends, help_lists_every_row_with_its_flags)
{
    const auto help = run_capturing(dispatch, {"help"});
    EXPECT_EQ(help.code, 0);
    EXPECT_EQ(help.errors, "");
    EXPECT_EQ(help.out.rfind("link       end-to-end single-link simulation\n"
                             "           --preset --distance --angle",
                             0),
              0u)
        << help.out;
    // Each row's block runs from its `name  summary` line to the next row's.
    std::vector<std::size_t> starts;
    for (const auto& row : commands()) {
        const std::string line =
            row.name + std::string(11 - row.name.size(), ' ') + row.summary + "\n";
        starts.push_back(help.out.find(line));
        ASSERT_NE(starts.back(), std::string::npos) << row.name;
    }
    starts.push_back(help.out.size());
    for (std::size_t i = 0; i < commands().size(); ++i) {
        const std::string block = help.out.substr(starts[i], starts[i + 1] - starts[i]);
        for (const auto& flag : commands()[i].flags) {
            const bool listed = block.find(" --" + flag + " ") != std::string::npos ||
                                block.find(" --" + flag + "\n") != std::string::npos;
            EXPECT_TRUE(listed) << flag << " in " << block;
        }
    }
}

TEST(commands, link_plate_at_angle_fails_gracefully)
{
    // A flat-plate tag rotated 30 degrees loses the link: exit code 2
    // (ran fine, delivered nothing).
    const char* argv[] = {"mmtag_sim", "link", "--reflector", "plate", "--angle", "30",
                          "--frames", "2"};
    EXPECT_EQ(dispatch(8, argv), 2);
}

} // namespace
} // namespace mmtag::cli
