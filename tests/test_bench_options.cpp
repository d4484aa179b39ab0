// bench_util flag parsing: the strict numeric contract. strtoull would
// happily wrap "--jobs -1" to 2^64-1 and truncate "--seed 1e3" to 1; the
// parser must instead print one error line and exit(2). The same holds for
// a flag that is neither common nor one of the bench's named extras.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"

namespace mmtag::bench {
namespace {

/// Runs bench_options::parse over a brace-list of flags (argv[0] included),
/// for a bench whose extras are `--trials`, `--snr-db` and `--verbose`.
bench_options parse_flags(std::vector<std::string> flags)
{
    flags.insert(flags.begin(), "bench_test");
    std::vector<char*> argv;
    argv.reserve(flags.size());
    for (auto& flag : flags) argv.push_back(flag.data());
    return bench_options::parse(static_cast<int>(argv.size()), argv.data(),
                                {"trials", "snr-db", "verbose"});
}

TEST(bench_options, parses_well_formed_flags)
{
    const auto opts = parse_flags(
        {"--csv", "--jobs", "4", "--seed", "99", "--json", "out.json",
         "--trials", "250", "--snr-db", "-2.5", "--verbose"});
    EXPECT_TRUE(opts.csv);
    EXPECT_EQ(opts.jobs, 4u);
    EXPECT_EQ(opts.seed, 99u);
    EXPECT_EQ(opts.json_path, "out.json");
    EXPECT_EQ(opts.extra_u64("trials", 1), 250u);
    EXPECT_TRUE(opts.flags.get_flag("verbose"));
    EXPECT_EQ(opts.extra_u64("absent", 7), 7u);
}

TEST(bench_options_death, negative_jobs_exits_with_code_2)
{
    EXPECT_EXIT(parse_flags({"--jobs", "-1"}), testing::ExitedWithCode(2),
                "--jobs expects a non-negative integer");
}

TEST(bench_options_death, scientific_notation_seed_exits)
{
    EXPECT_EXIT(parse_flags({"--seed", "1e3"}), testing::ExitedWithCode(2),
                "--seed expects a non-negative integer");
}

TEST(bench_options_death, trailing_junk_in_extra_u64_exits)
{
    const auto opts = parse_flags({"--trials", "12x"});
    EXPECT_EXIT((void)opts.extra_u64("trials", 1), testing::ExitedWithCode(2),
                "--trials expects a non-negative integer");
}

TEST(bench_options_death, overflowing_u64_exits)
{
    EXPECT_EXIT(parse_flags({"--seed", "99999999999999999999999999"}),
                testing::ExitedWithCode(2),
                "--seed expects a non-negative integer");
}

TEST(bench_options_death, missing_value_exits)
{
    EXPECT_EXIT(parse_flags({"--json"}), testing::ExitedWithCode(2),
                "--json needs a value");
}

TEST(bench_options, named_extras_need_not_be_read_at_parse)
{
    const auto opts = parse_flags({"--trials", "3", "--csv"});
    EXPECT_TRUE(opts.csv);
    EXPECT_EQ(opts.extra_u64("trials", 1), 3u);
}

TEST(bench_options_death, unknown_flag_exits)
{
    EXPECT_EXIT(parse_flags({"--jobz", "4", "--csv"}), testing::ExitedWithCode(2),
                "unknown option --jobz");
}

TEST(bench_options_death, unexpected_positional_exits)
{
    EXPECT_EXIT(parse_flags({"stray"}), testing::ExitedWithCode(2),
                "unexpected argument 'stray'");
}

/// Runs bench::run over a brace-list of flags with `experiment` as the body.
template <typename Experiment>
int run_flags(std::vector<std::string> flags, Experiment experiment)
{
    flags.insert(flags.begin(), "bench_test");
    std::vector<char*> argv;
    argv.reserve(flags.size());
    for (auto& flag : flags) argv.push_back(flag.data());
    return run(static_cast<int>(argv.size()), argv.data(), experiment, {"trials"});
}

TEST(bench_options_death, library_rejection_in_the_bench_body_exits_with_code_2)
{
    // A well-formed flag whose value the library rejects, e.g.
    // bench_r22_network_soak --rounds 0: one error line, then exit 2.
    EXPECT_EXIT(std::exit(run_flags({"--trials", "0"},
                                    [](const bench_options&) -> int {
                                        throw std::invalid_argument(
                                            "run_soak: rounds must be >= 1");
                                    })),
                testing::ExitedWithCode(2), "^error: run_soak: rounds must be >= 1\n$");
}

TEST(bench_options_death, partial_double_in_extra_exits)
{
    // A bench reads a numeric extra in its body through flags.get_double;
    // bench::run turns the parse error into one error line and exit 2.
    EXPECT_EXIT(std::exit(run_flags({"--trials", "3.x"},
                                    [](const bench_options& opts) {
                                        return static_cast<int>(
                                            opts.flags.get_double("trials", 1.0));
                                    })),
                testing::ExitedWithCode(2), "^error: --trials expects a number, got '3.x'\n$");
}

TEST(bench_options, run_returns_the_experiment_status_and_lets_other_errors_escape)
{
    EXPECT_EQ(run_flags({"--trials", "3"},
                        [](const bench_options& opts) {
                            return static_cast<int>(opts.extra_u64("trials", 1));
                        }),
              3);
    EXPECT_THROW(run_flags({},
                           [](const bench_options&) -> int {
                               throw std::runtime_error("disk on fire");
                           }),
                 std::runtime_error);
}

} // namespace
} // namespace mmtag::bench
