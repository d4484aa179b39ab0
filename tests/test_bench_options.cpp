// The bench driver's flag contract. strtoull would happily wrap "--jobs -1"
// to 2^64-1 and truncate "--seed 1e3" to 1; the parser must instead print one
// error line and exit 2. The same holds for a flag the experiment does not
// list, and for an unknown experiment id. The driver is exercised on a small
// fake table; the real tables are checked in test_cli.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_util.hpp"
#include "mmtag/runtime/json_io.hpp"

namespace mmtag::bench {
namespace {

/// Runs the driver over a one-experiment table: `FAKE` reads `reads` (and
/// --csv) and has `body` as its function. `args` starts with the experiment
/// id. Returns the exit status.
int run_table(const std::vector<std::string>& reads, std::vector<std::string> args,
              cli::outcome (*body)(const bench_options&))
{
    const cli::command table[] = {experiment("FAKE", "a fake experiment", body, reads)};
    args.insert(args.begin(), "mmtag_bench");
    std::vector<const char*> argv;
    argv.reserve(args.size());
    for (const auto& arg : args) argv.push_back(arg.c_str());
    return run(static_cast<int>(argv.size()), argv.data(), table);
}

/// Runs experiment FAKE, which reads `reads` and nothing else, with `flags`.
int parse_flags(const std::vector<std::string>& reads, std::vector<std::string> flags)
{
    flags.insert(flags.begin(), "FAKE");
    return run_table(reads, std::move(flags),
                     [](const bench_options&) { return cli::outcome{}; });
}

TEST(bench_options, parses_well_formed_flags)
{
    const int status = run_table(
        {"jobs", "seed", "json", "trials", "snr-db", "verbose"},
        {"FAKE", "--csv", "--jobs", "4", "--seed", "99", "--json", "out.json",
         "--trials", "250", "--snr-db", "-2.5", "--verbose"},
        [](const bench_options& opts) {
            EXPECT_TRUE(opts.csv);
            EXPECT_EQ(opts.jobs, 4u);
            EXPECT_EQ(opts.seed, 99u);
            EXPECT_EQ(opts.flags.get_uint("trials", 1), 250u);
            EXPECT_DOUBLE_EQ(opts.flags.get_double("snr-db", 0.0), -2.5);
            EXPECT_TRUE(opts.flags.get_flag("verbose"));
            EXPECT_EQ(opts.flags.get_uint("absent", 7), 7u);
            return cli::outcome{};
        });
    EXPECT_EQ(status, 0);
}

TEST(bench_options_death, negative_jobs_exits_with_code_2)
{
    EXPECT_EXIT(std::exit(parse_flags({"jobs"}, {"--jobs", "-1"})), testing::ExitedWithCode(2),
                "--jobs expects a non-negative integer");
}

TEST(bench_options_death, scientific_notation_seed_exits)
{
    EXPECT_EXIT(std::exit(parse_flags({"seed"}, {"--seed", "1e3"})), testing::ExitedWithCode(2),
                "--seed expects a non-negative integer");
}

TEST(bench_options_death, trailing_junk_in_extra_u64_exits)
{
    // An experiment's own flag is read in its body; the driver turns the
    // parse error into the error line and exit 2.
    EXPECT_EXIT(std::exit(run_table({"trials"}, {"FAKE", "--trials", "12x"},
                                    [](const bench_options& opts) {
                                        return cli::outcome{.status = static_cast<int>(
                                                            opts.flags.get_uint("trials", 1))};
                                    })),
                testing::ExitedWithCode(2), "--trials expects a non-negative integer");
}

TEST(bench_options_death, overflowing_u64_exits)
{
    EXPECT_EXIT(std::exit(parse_flags({"seed"}, {"--seed", "99999999999999999999999999"})),
                testing::ExitedWithCode(2),
                "--seed expects a non-negative integer");
}

TEST(bench_options_death, missing_value_exits)
{
    EXPECT_EXIT(std::exit(parse_flags({"json"}, {"--json"})), testing::ExitedWithCode(2),
                "--json needs a value");
}

TEST(bench_options, named_extras_need_not_be_read_at_parse)
{
    EXPECT_EQ(run_table({"trials"}, {"FAKE", "--trials", "3", "--csv"},
                        [](const bench_options& opts) {
                            EXPECT_TRUE(opts.csv);
                            return cli::outcome{.status = static_cast<int>(
                                                opts.flags.get_uint("trials", 1))};
                        }),
              3);
}

TEST(bench_options_death, unknown_flag_exits)
{
    EXPECT_EXIT(std::exit(parse_flags({"jobs"}, {"--jobz", "4", "--csv"})),
                testing::ExitedWithCode(2), "unknown option --jobz");
    // --jobs, --seed and --json are accepted only where they are read; only
    // --csv is common to every experiment.
    EXPECT_EXIT(std::exit(parse_flags({}, {"--csv", "--jobs", "4"})),
                testing::ExitedWithCode(2), "^error: unknown option --jobs\n$");
    EXPECT_EXIT(std::exit(parse_flags({"jobs", "json"}, {"--seed", "9"})),
                testing::ExitedWithCode(2), "^error: unknown option --seed\n$");
    EXPECT_EXIT(std::exit(parse_flags({"fault-seed"}, {"--json", "x.json"})),
                testing::ExitedWithCode(2), "^error: unknown option --json\n$");
}

TEST(bench_options_death, unexpected_positional_exits)
{
    EXPECT_EXIT(std::exit(parse_flags({}, {"stray"})), testing::ExitedWithCode(2),
                "unexpected argument 'stray'");
}

/// Runs the driver over a one-experiment table: `FAKE` reads `--trials` and
/// has `body` as its function. `args` starts with the experiment id.
int run_flags(std::vector<std::string> args, cli::outcome (*body)(const bench_options&))
{
    return run_table({"trials"}, std::move(args), body);
}

/// An experiment body that leaves a mark on stderr, so a death test can
/// tell whether it ran.
cli::outcome marks_stderr(const bench_options&)
{
    std::fprintf(stderr, "experiment ran\n");
    return {};
}

TEST(bench_options_death, library_rejection_in_the_bench_body_exits_with_code_2)
{
    // A well-formed flag whose value the library rejects, e.g.
    // mmtag_bench R22 --rounds 0: one error line, then exit 2.
    EXPECT_EXIT(std::exit(run_flags({"FAKE", "--trials", "0"},
                                    [](const bench_options&) -> cli::outcome {
                                        throw std::invalid_argument(
                                            "run_soak: rounds must be >= 1");
                                    })),
                testing::ExitedWithCode(2), "^error: run_soak: rounds must be >= 1\n$");
}

TEST(bench_options_death, partial_double_in_extra_exits)
{
    // An experiment reads a numeric flag in its body through flags.get_double;
    // the driver turns the parse error into one error line and exit 2.
    EXPECT_EXIT(std::exit(run_flags({"FAKE", "--trials", "3.x"},
                                    [](const bench_options& opts) {
                                        return cli::outcome{.status = static_cast<int>(
                                                            opts.flags.get_double("trials", 1.0))};
                                    })),
                testing::ExitedWithCode(2), "^error: --trials expects a number, got '3.x'\n$");
}

TEST(bench_options, run_returns_the_experiment_status_and_lets_other_errors_escape)
{
    EXPECT_EQ(run_flags({"FAKE", "--csv", "--trials", "3"},
                        [](const bench_options& opts) {
                            return cli::outcome{
                                .status = static_cast<int>(opts.flags.get_uint("trials", 1))};
                        }),
              3);
    EXPECT_THROW(run_flags({"FAKE", "--csv"},
                           [](const bench_options&) -> cli::outcome {
                               throw std::runtime_error("disk on fire");
                           }),
                 std::runtime_error);
}

TEST(bench_options_death, a_rejected_flag_stops_the_driver_before_the_experiment_runs)
{
    EXPECT_EXIT(std::exit(run_flags({"FAKE", "--jobs", "4"}, marks_stderr)),
                testing::ExitedWithCode(2), "^error: unknown option --jobs\n$");
    EXPECT_EXIT(std::exit(run_flags({"FAKE", "--csv=maybe"}, marks_stderr)),
                testing::ExitedWithCode(2), "^error: --csv is a flag; got 'maybe'\n$");
}

TEST(bench_driver, unknown_experiment_exits_2_with_one_error_line)
{
    testing::internal::CaptureStderr();
    EXPECT_EQ(run_flags({"R99", "--csv"}, marks_stderr), 2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "error: unknown experiment 'R99' (mmtag_bench help lists them)\n");
}

TEST(bench_driver, help_and_no_argument_list_the_table)
{
    for (const auto& args : {std::vector<std::string>{"help"}, std::vector<std::string>{}}) {
        testing::internal::CaptureStdout();
        EXPECT_EQ(run_flags(args, marks_stderr), 0);
        EXPECT_EQ(testing::internal::GetCapturedStdout(),
                  "FAKE  a fake experiment\n      --csv --trials\n");
    }
}

TEST(bench_driver, writes_the_result_file_and_the_summary_line)
{
    const auto path = std::filesystem::temp_directory_path() / "mmtag_bench_driver_test.json";
    std::filesystem::remove(path);
    const cli::command table[] = {
        experiment("R0", "a fake JSON experiment", [](const bench_options& opts) {
            runtime::result_writer results(opts.id, opts.title, {"x"}, 7);
            auto axis = runtime::json_value::object();
            axis.set("x", runtime::json_value::number(1.0));
            results.add_point(std::move(axis), 2, runtime::json_value::object());
            return cli::outcome{.document = results.to_json(), .tasks = 2, .jobs = 1,
                                .events = 10};
        }, {"jobs", "json"})};
    std::string json = path.string();
    std::string args[] = {"mmtag_bench", "R0", "--json", json};
    char* argv[] = {args[0].data(), args[1].data(), args[2].data(), args[3].data()};

    testing::internal::CaptureStdout();
    EXPECT_EQ(run(4, argv, table), 0);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(out.rfind("\n=== R0: a fake JSON experiment ===\n\n  runtime: 2 tasks in ", 0), 0u)
        << out;
    EXPECT_NE(out.find(" s wall (1 jobs, "), std::string::npos) << out;
    EXPECT_NE(out.find(" events/s)\nwrote " + json + "\n"), std::string::npos) << out;

    const auto text = runtime::read_text_file(json);
    ASSERT_TRUE(text.has_value());
    const auto doc = runtime::parse_json(*text);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("id")->as_string(), "R0");
    EXPECT_EQ(doc->find("title")->as_string(), "a fake JSON experiment");
    EXPECT_EQ(doc->find("points")->size(), 1u);
    const auto* run_section = doc->find("run");
    ASSERT_NE(run_section, nullptr);
    EXPECT_EQ(run_section->find("jobs")->as_uint(), 1u);
    EXPECT_NE(run_section->find("git"), nullptr);
    std::filesystem::remove(path);
}

/// Reads the number printed just before `unit` in `line`.
double number_before(const std::string& line, const std::string& unit)
{
    const auto end = line.find(unit);
    EXPECT_NE(end, std::string::npos) << unit << " in " << line;
    const auto start = line.rfind(' ', end - 1);
    return std::stod(line.substr(start + 1, end - start - 1));
}

TEST(bench_driver, events_per_second_leave_out_the_set_up_time)
{
    // A row that spends ~0.3 s, ~0.1 s of it in set-up, over 1,000 events:
    // events/s is 1,000 over the time after set-up (~5,000/s), not over the
    // whole wall (~3,300/s).
    const cli::command table[] = {
        experiment("R0", "a fake timed experiment", [](const bench_options&) {
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            return cli::outcome{.tasks = 4, .jobs = 2, .events = 1000, .setup_s = 0.1};
        }, {"jobs"})};
    const char* argv[] = {"mmtag_bench", "R0"};
    testing::internal::CaptureStdout();
    EXPECT_EQ(run(2, argv, table), 0);
    const std::string out = testing::internal::GetCapturedStdout();
    const auto line_start = out.find("  runtime: set-up 0.100 s, 4 tasks in ");
    ASSERT_NE(line_start, std::string::npos) << out;
    const std::string line = out.substr(line_start, out.find('\n', line_start) - line_start);
    EXPECT_NE(line.find(" s wall (2 jobs, "), std::string::npos) << line;
    const double wall_s = number_before(line, " s wall");
    const double events_per_s = number_before(line, " events/s");
    ASSERT_GT(wall_s, 0.2) << line;
    EXPECT_NEAR(events_per_s, 1000.0 / (wall_s - 0.1), 0.05 * events_per_s) << line;
    EXPECT_NEAR(number_before(line, " tasks/s"), 4.0 / wall_s, 0.05 * 4.0 / wall_s) << line;
}

} // namespace
} // namespace mmtag::bench
