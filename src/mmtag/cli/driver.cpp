#include "mmtag/cli/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace mmtag::cli {

namespace {

/// One `NAME  summary` line per row, then the row's flags, indented to the
/// summary column and wrapped before column 80.
std::string listing(std::span<const command> table)
{
    std::size_t width = 0;
    for (const auto& row : table) width = std::max(width, row.name.size());
    const std::string indent(width + 2, ' ');
    std::string out;
    for (const auto& row : table) {
        out += row.name + std::string(indent.size() - row.name.size(), ' ') + row.summary + '\n';
        std::string line = indent;
        for (const auto& flag : row.flags) {
            if (line.size() > indent.size() && line.size() + 3 + flag.size() > 79) {
                out += line + '\n';
                line = indent;
            }
            line += (line.size() > indent.size() ? " --" : "--") + flag;
        }
        if (line.size() > indent.size()) out += line + '\n';
    }
    return out;
}

} // namespace

int run(int argc, const char* const* argv, std::span<const command> table,
        const front_end& front)
{
    if (argc < 2 || std::string(argv[1]) == "help") {
        std::printf("%s", listing(table).c_str());
        return argc < 2 ? front.no_argument_status : 0;
    }
    const auto row = std::find_if(table.begin(), table.end(),
                                  [&](const command& entry) { return entry.name == argv[1]; });
    try {
        if (row == table.end()) {
            throw std::invalid_argument(std::string("unknown ") + front.noun + " '" + argv[1] +
                                        "' (" + front.program + " help lists them)");
        }
        const option_set options = option_set::parse(argc, argv);
        // Nothing is read yet, so unconsumed() is every flag given.
        for (const auto& key : options.unconsumed()) {
            if (std::find(row->flags.begin(), row->flags.end(), key) == row->flags.end()) {
                throw std::invalid_argument("unknown option --" + key);
            }
        }
        return row->run(options);
    } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return front.bad_input_status;
    }
}

} // namespace mmtag::cli
