#include "mmtag/runtime/json_io.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mmtag::runtime {

std::optional<std::string> read_text_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) return std::nullopt;
    return buffer.str();
}

json_value ratio_or_null(double value, std::uint64_t observations)
{
    if (observations == 0 || !std::isfinite(value)) return json_value::null();
    return json_value::number(value);
}

json_value schema_object(const std::string& schema)
{
    auto doc = json_value::object();
    doc.set("schema", json_value::string(schema));
    return doc;
}

namespace {

/// Recursive-descent parser over the exact grammar json_value::dump emits
/// (plus standard JSON it never produces, like exponents and unicode
/// escapes, so hand-edited documents still load).
class parser {
public:
    explicit parser(const std::string& text) : text_(text) {}

    std::optional<json_value> run()
    {
        skip_ws();
        auto value = parse_value();
        if (!value) return std::nullopt;
        skip_ws();
        if (pos_ != text_.size()) return std::nullopt;
        return value;
    }

private:
    std::optional<json_value> parse_value()
    {
        if (depth_ > 128) return std::nullopt;
        switch (peek()) {
        case '{': return parse_object();
        case '[': return parse_array();
        case '"': {
            auto text = parse_string();
            if (!text) return std::nullopt;
            return json_value::string(std::move(*text));
        }
        case 't':
            if (!literal("true")) return std::nullopt;
            return json_value::boolean(true);
        case 'f':
            if (!literal("false")) return std::nullopt;
            return json_value::boolean(false);
        case 'n':
            if (!literal("null")) return std::nullopt;
            return json_value::null();
        default: return parse_number();
        }
    }

    std::optional<json_value> parse_object()
    {
        ++pos_; // {
        ++depth_;
        auto object = json_value::object();
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return object;
        }
        while (true) {
            skip_ws();
            auto key = parse_string();
            if (!key) return std::nullopt;
            skip_ws();
            if (peek() != ':') return std::nullopt;
            ++pos_;
            skip_ws();
            auto value = parse_value();
            if (!value) return std::nullopt;
            object.set(*key, std::move(*value));
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                --depth_;
                return object;
            }
            return std::nullopt;
        }
    }

    std::optional<json_value> parse_array()
    {
        ++pos_; // [
        ++depth_;
        auto array = json_value::array();
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return array;
        }
        while (true) {
            skip_ws();
            auto value = parse_value();
            if (!value) return std::nullopt;
            array.push(std::move(*value));
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                --depth_;
                return array;
            }
            return std::nullopt;
        }
    }

    std::optional<std::string> parse_string()
    {
        if (peek() != '"') return std::nullopt;
        ++pos_;
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_];
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size()) return std::nullopt;
                switch (text_[pos_]) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 >= text_.size()) return std::nullopt;
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_ + 1 + static_cast<std::size_t>(i)];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
                        else return std::nullopt;
                    }
                    pos_ += 4;
                    // UTF-8 encode the code point (surrogate pairs are not
                    // reassembled; our emitter only escapes control chars).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                }
                default: return std::nullopt;
                }
                ++pos_;
            } else {
                out += c;
                ++pos_;
            }
        }
        if (pos_ >= text_.size()) return std::nullopt;
        ++pos_; // closing quote
        return out;
    }

    std::optional<json_value> parse_number()
    {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        bool integral = true;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start) return std::nullopt;
        const std::string token = text_.substr(start, pos_ - start);
        if (integral) {
            errno = 0;
            char* end = nullptr;
            if (token[0] == '-') {
                const long long value = std::strtoll(token.c_str(), &end, 10);
                if (errno == 0 && end != nullptr && *end == '\0') {
                    return json_value::integer(value);
                }
            } else {
                const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
                if (errno == 0 && end != nullptr && *end == '\0') {
                    return json_value::unsigned_integer(value);
                }
            }
            // Out-of-range integer literal: fall through to double.
        }
        char* end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0' || !std::isfinite(value)) return std::nullopt;
        return json_value::number(value);
    }

    bool literal(const char* word)
    {
        const std::string w(word);
        if (text_.compare(pos_, w.size(), w) != 0) return false;
        pos_ += w.size();
        return true;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
    void skip_ws()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
            ++pos_;
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

std::optional<json_value> parse_json(const std::string& text)
{
    return parser(text).run();
}

} // namespace mmtag::runtime
