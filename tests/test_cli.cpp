#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "mmtag/cli/commands.hpp"
#include "mmtag/cli/options.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/runtime/json_io.hpp"

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
    EXPECT_EQ(opts.command(), "link");
    EXPECT_DOUBLE_EQ(opts.get_double("distance", 0.0), 3.5);
    EXPECT_EQ(opts.get_int("frames", 0), 7);
}

TEST(options, equals_form)
{
    const auto opts = parse({"budget", "--tx-power=30", "--points=5"});
    EXPECT_DOUBLE_EQ(opts.get_double("tx-power", 0.0), 30.0);
    EXPECT_EQ(opts.get_int("points", 0), 5);
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
    EXPECT_THROW(parse({"--no-subcommand"}), std::invalid_argument);
    EXPECT_THROW(parse({"link", "distance", "3"}), std::invalid_argument);
    EXPECT_THROW(parse({"link", "--d", "1", "--d", "2"}), std::invalid_argument);
    const char* argv[] = {"mmtag_sim"};
    EXPECT_THROW(option_set::parse(1, argv), std::invalid_argument);
}

TEST(options, rejects_bad_numbers)
{
    const auto opts = parse({"link", "--distance", "abc", "--frames", "2.5"});
    EXPECT_THROW((void)opts.get_double("distance", 0.0), std::invalid_argument);
    EXPECT_THROW((void)opts.get_int("frames", 0), std::invalid_argument);
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
