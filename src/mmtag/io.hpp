// Text output shared by every layer that writes files: the obs tracer and
// the runtime result documents. A leaf unit, so neither depends on the other.
#pragma once

#include <string>

namespace mmtag::io {

/// Writes `text` plus a trailing newline to `path`, creating parent
/// directories first. Warns on stderr and returns false when the filesystem
/// refuses; emitters keep going (results are printed too).
bool write_text_file(const std::string& path, const std::string& text);

/// Appends `text` to `out` as a quoted JSON string literal: quote, backslash
/// and control characters escaped, everything else (UTF-8 included) verbatim.
void append_json_string(std::string& out, const std::string& text);

} // namespace mmtag::io
