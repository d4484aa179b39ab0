// Shared JSON document I/O for every schema emitter (bench results, soak
// reports, scale results, phy tables): whole-file reads, a strict parser
// into the ordered json_value model, and the common document helpers (schema
// header, ratio-or-null) that used to be copy-pasted per emitter. Files are
// written with io::write_text_file (mmtag/io.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "mmtag/runtime/result_writer.hpp"

namespace mmtag::runtime {

/// Whole-file read; nullopt when the file is missing or unreadable.
[[nodiscard]] std::optional<std::string> read_text_file(const std::string& path);

/// Strict JSON parser into the ordered document model (objects keep member
/// order, numbers parse as integer/unsigned/double by shape). Returns
/// nullopt on any syntax error or trailing garbage. Round-trips everything
/// json_value::dump emits — the contract the phy-table disk cache relies on.
[[nodiscard]] std::optional<json_value> parse_json(const std::string& text);

/// A ratio metric is meaningless without observations: "BER over zero bits"
/// is not 0.0 (that would claim an error-free link), it is absent. Emits
/// JSON null so downstream tooling can tell "measured clean" from "never
/// measured" — and so non-finite doubles never leak into a file as bare
/// nan/inf.
[[nodiscard]] json_value ratio_or_null(double value, std::uint64_t observations);

/// Object pre-seeded with {"schema": <name>} — the first member of every
/// mmtag result document (mmtag.bench.result/*, mmtag.soak.result/1,
/// mmtag.scale.result/1, mmtag.phy_table/1).
[[nodiscard]] json_value schema_object(const std::string& schema);

} // namespace mmtag::runtime
