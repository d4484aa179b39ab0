#include "mmtag/io.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace mmtag::io {

bool write_text_file(const std::string& path, const std::string& text)
{
    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return false;
    }
    out << text;
    // Written documents always end in exactly one newline.
    if (text.empty() || text.back() != '\n') out << '\n';
    return static_cast<bool>(out);
}

void append_json_string(std::string& out, const std::string& text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace mmtag::io
