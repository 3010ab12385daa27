// Minimal JSON *reading* for the obs layer (json.hpp is write-only).
//
// The trace merger re-reads the Chrome trace shards each child process
// exported; this parser covers exactly the JSON the exporters emit —
// objects, arrays, strings with the escapes json_escape produces, numbers,
// true/false/null — and is strict about everything else. It is a post-run
// tool-path component, not hot-path code: clarity over speed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace splitsim::obs {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;  ///< string value; for numbers, the source text
  std::vector<JsonValue> array;
  /// Insertion-ordered object members (Chrome trace readers care about
  /// nothing here, but stable order keeps merges diffable).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Member lookup (objects only); nullptr when absent.
  const JsonValue* find(const std::string& key) const;

  /// Convenience accessors with defaults for absent/mistyped members.
  double num(const std::string& key, double fallback = 0.0) const;
  std::string str(const std::string& key, const std::string& fallback = {}) const;

  /// This number as an exact unsigned integer, parsed from its source text
  /// so values above 2^53 survive. False for anything that is not a
  /// non-negative integer in uint64 range.
  bool to_u64(std::uint64_t& out) const;
};

/// Parse `text` into `out`. Returns false (with a position-annotated message
/// in `error`) on malformed input.
bool json_parse(const std::string& text, JsonValue& out, std::string& error);

}  // namespace splitsim::obs
