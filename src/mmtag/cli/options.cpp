#include "mmtag/cli/options.hpp"

#include <stdexcept>

namespace mmtag::cli {

option_set option_set::parse(int argc, const char* const* argv)
{
    option_set out;
    if (argc < 2) throw std::invalid_argument("missing subcommand");
    out.command_ = argv[1];
    if (out.command_.empty() || out.command_[0] == '-') {
        throw std::invalid_argument("first argument must be a subcommand, got '" +
                                    out.command_ + "'");
    }
    out.parse_options(2, argc, argv);
    return out;
}

option_set option_set::parse_flags(int argc, const char* const* argv)
{
    option_set out;
    out.parse_options(1, argc, argv);
    return out;
}

void option_set::parse_options(int first, int argc, const char* const* argv)
{
    for (int i = first; i < argc; ++i) {
        std::string token = argv[i];
        if (token.rfind("--", 0) != 0 || token.size() <= 2) {
            throw std::invalid_argument("unexpected argument '" + token + "'");
        }
        token.erase(0, 2);
        std::optional<std::string> value;
        const auto equals = token.find('=');
        if (equals != std::string::npos) {
            value = token.substr(equals + 1);
            token.resize(equals);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            value = argv[++i];
        }
        if (values_.count(token) != 0) {
            throw std::invalid_argument("duplicate option --" + token);
        }
        values_[token] = std::move(value);
    }
}

const std::string* option_set::value_of(const std::string& key) const
{
    const auto it = values_.find(key);
    if (it == values_.end()) return nullptr;
    consumed_[key] = true;
    if (!it->second) throw std::invalid_argument("--" + key + " needs a value");
    return &*it->second;
}

bool option_set::has(const std::string& key) const
{
    return values_.count(key) != 0;
}

double option_set::get_double(const std::string& key, double fallback) const
{
    const std::string* text = value_of(key);
    if (text == nullptr) return fallback;
    try {
        std::size_t used = 0;
        const double value = std::stod(*text, &used);
        if (used != text->size()) throw std::invalid_argument("trailing junk");
        return value;
    } catch (const std::exception&) {
        throw std::invalid_argument("--" + key + " expects a number, got '" + *text + "'");
    }
}

std::int64_t option_set::get_int(const std::string& key, std::int64_t fallback) const
{
    const std::string* text = value_of(key);
    if (text == nullptr) return fallback;
    try {
        std::size_t used = 0;
        const long long value = std::stoll(*text, &used);
        if (used != text->size()) throw std::invalid_argument("trailing junk");
        return value;
    } catch (const std::exception&) {
        throw std::invalid_argument("--" + key + " expects an integer, got '" + *text + "'");
    }
}

std::uint64_t option_set::get_uint(const std::string& key, std::uint64_t fallback) const
{
    const std::string* value = value_of(key);
    if (value == nullptr) return fallback;
    const std::string& text = *value;
    // std::stoull accepts "-1" (wrapping to 18446744073709551615) and
    // "1e3" parses as 1 with trailing junk — both must be hard errors here.
    const bool all_digits =
        !text.empty() && text.find_first_not_of("0123456789") == std::string::npos;
    if (all_digits) {
        try {
            std::size_t used = 0;
            const unsigned long long value = std::stoull(text, &used);
            if (used == text.size()) return value;
        } catch (const std::exception&) {
            // out of range: fall through to the uniform message
        }
    }
    throw std::invalid_argument("--" + key + " expects a non-negative integer, got '" +
                                text + "'");
}

std::string option_set::get_string(const std::string& key, const std::string& fallback) const
{
    const std::string* text = value_of(key);
    return text == nullptr ? fallback : *text;
}

bool option_set::get_flag(const std::string& key) const
{
    const auto it = values_.find(key);
    if (it == values_.end()) return false;
    consumed_[key] = true;
    if (!it->second) return true; // bare
    const std::string& value = *it->second;
    if (value == "true" || value == "1" || value == "yes") return true;
    if (value == "false" || value == "0" || value == "no") return false;
    throw std::invalid_argument("--" + key + " is a flag; got '" + value + "'");
}

std::optional<std::string> option_set::get_flag_or_string(const std::string& key) const
{
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    consumed_[key] = true;
    if (!it->second || *it->second == "true") return std::string();
    return *it->second;
}

std::vector<std::string> option_set::unconsumed() const
{
    std::vector<std::string> leftover;
    for (const auto& [key, value] : values_) {
        if (consumed_.find(key) == consumed_.end()) leftover.push_back(key);
    }
    return leftover;
}

} // namespace mmtag::cli
