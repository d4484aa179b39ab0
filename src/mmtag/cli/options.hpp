// Command-line option parsing for mmtag_sim and mmtag_bench (through the
// driver in driver.hpp). Kept in the library so parsing and validation are
// unit tested like everything else.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mmtag::cli {

/// The --key value pairs of a command line, after its command name.
///
/// Accepted forms: `--key value`, `--key=value`, and a bare `--key` (the
/// next token is absent or starts with "--"). Unknown keys are collected so
/// callers can reject them with a precise message.
class option_set {
public:
    /// Parses argv[2..]; argv[1] is the command name, which the driver has
    /// already looked up. Throws std::invalid_argument on malformed input.
    static option_set parse(int argc, const char* const* argv);

    [[nodiscard]] bool has(const std::string& key) const;

    /// Typed getters: return the default when absent, throw
    /// std::invalid_argument when present but unparseable/out of range, or
    /// given bare ("--json needs a value").
    /// A finite number: "nan", "inf" and "-inf" are rejected like junk.
    [[nodiscard]] double get_double(const std::string& key, double fallback) const;
    /// Strict non-negative integer: rejects a leading sign (stoull would
    /// silently wrap "-1" to 2^64-1), scientific notation ("1e3"), trailing
    /// junk, and overflow — the counts (--jobs, --trials, --seed) where a
    /// wrapped or truncated value would silently run the wrong experiment.
    [[nodiscard]] std::uint64_t get_uint(const std::string& key,
                                         std::uint64_t fallback) const;
    [[nodiscard]] std::string get_string(const std::string& key,
                                         const std::string& fallback) const;
    /// True when given bare; a value must spell true/false (1/0, yes/no).
    [[nodiscard]] bool get_flag(const std::string& key) const;
    /// An option that may be given bare or with a value (`--metrics`,
    /// `--metrics=FILE`): nullopt when absent, "" when bare or spelled
    /// `true` (so `--metrics=true` never names a file "true").
    [[nodiscard]] std::optional<std::string> get_flag_or_string(const std::string& key) const;

    /// Keys that were supplied but not yet read by a getter (all of them,
    /// before the first read).
    [[nodiscard]] std::vector<std::string> unconsumed() const;

private:
    /// Marks `key` consumed; nullptr when absent, throws when bare.
    [[nodiscard]] const std::string* value_of(const std::string& key) const;

    std::map<std::string, std::optional<std::string>> values_; ///< nullopt: bare
    mutable std::map<std::string, bool> consumed_;
};

} // namespace mmtag::cli
