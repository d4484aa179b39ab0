// mmtag_perfbench: runs one benchmark workload and prints one JSON line:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}},
//    "digest", "digest_summary", "phy_table_fingerprint", "error"}
// perfbench/run.py builds this binary, adds provenance and prints the
// benchmark's result line.
//
// Usage: mmtag_perfbench --workload link_long|soak_multitag|des_100k
//                        --seed N --seconds S --trace 0|1 --scratch DIR
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "mmtag/runtime/json_io.hpp"
#include "workloads.hpp"

namespace {

using mmtag::runtime::json_value;

[[noreturn]] void usage(const std::string& problem)
{
    std::fprintf(stderr,
                 "error: %s\nusage: mmtag_perfbench --workload "
                 "link_long|soak_multitag|des_100k --seed N --seconds S --trace 0|1 "
                 "--scratch DIR\n",
                 problem.c_str());
    std::exit(2);
}

std::uint64_t parse_uint(const std::string& key, const std::string& text)
{
    if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
        usage("--" + key + " must be a non-negative integer, got '" + text + "'");
    }
    try {
        return std::stoull(text);
    } catch (const std::exception&) {
        usage("--" + key + " is out of range");
    }
}

} // namespace

int main(int argc, char** argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("malformed argument '" + key + "'");
        args[key.substr(2)] = argv[i + 1];
    }
    for (const char* required : {"workload", "seed", "seconds", "trace", "scratch"}) {
        if (args.count(required) == 0) usage(std::string("missing --") + required);
    }
    if (args.size() != 5) usage("unknown argument");

    perfbench::run_options options;
    options.seed = parse_uint("seed", args["seed"]);
    const std::uint64_t seconds = parse_uint("seconds", args["seconds"]);
    if (seconds == 0 || seconds > 60) usage("--seconds must be in [1, 60]");
    options.seconds = static_cast<double>(seconds);
    options.scratch_dir = args["scratch"];
    const std::uint64_t trace = parse_uint("trace", args["trace"]);
    if (trace > 1) usage("--trace must be 0 or 1");

    const std::string& workload = args["workload"];
    if (workload != "link_long" && workload != "soak_multitag" && workload != "des_100k") {
        usage("unknown workload '" + workload + "'");
    }

    perfbench::workload_result result;
    try {
        if (trace == 1) {
            result = perfbench::run_traced(options);
        } else if (workload == "link_long") {
            result = perfbench::run_link_long(options);
        } else if (workload == "soak_multitag") {
            result = perfbench::run_soak_multitag(options);
        } else {
            result = perfbench::run_des_100k(options);
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s: %s\n", workload.c_str(), error.what());
        return 1;
    }

    auto metrics = json_value::object();
    for (const auto& m : result.metrics) {
        auto entry = json_value::object();
        entry.set("value", json_value::number(m.value));
        entry.set("unit", json_value::string(m.unit));
        metrics.set(m.name, std::move(entry));
    }
    auto doc = json_value::object();
    doc.set("correct", json_value::boolean(result.correct));
    doc.set("attempted", json_value::unsigned_integer(result.attempted));
    doc.set("failed", json_value::unsigned_integer(result.failed));
    doc.set("metrics", std::move(metrics));
    doc.set("digest", json_value::string(result.digest));
    doc.set("digest_summary", json_value::string(result.digest_summary));
    doc.set("phy_table_fingerprint", json_value::string(result.phy_table_fingerprint));
    doc.set("error", json_value::string(result.error));
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}
