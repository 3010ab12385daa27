#include "obs/jsonread.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace splitsim::obs {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::num(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

std::string JsonValue::str(const std::string& key, const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::kString ? v->string : fallback;
}

bool JsonValue::to_u64(std::uint64_t& out) const {
  if (kind != Kind::kNumber || string.empty()) return false;
  for (char c : string) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  out = std::strtoull(string.c_str(), nullptr, 10);
  return errno == 0;
}

namespace {

struct Parser {
  const std::string& s;
  std::size_t i = 0;
  std::string err;

  bool fail(const std::string& what) {
    if (err.empty()) err = what + " at offset " + std::to_string(i);
    return false;
  }

  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) {
      ++i;
    }
  }

  bool literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s.compare(i, n, lit) != 0) return fail(std::string("expected '") + lit + "'");
    i += n;
    return true;
  }

  bool parse_string(std::string& out) {
    if (i >= s.size() || s[i] != '"') return fail("expected string");
    ++i;
    out.clear();
    while (i < s.size()) {
      char c = s[i++];
      if (c == '"') return true;
      if (c == '\\') {
        if (i >= s.size()) return fail("truncated escape");
        char e = s[i++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (i + 4 > s.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              char h = s[i++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // Exporters only \u-escape control characters; encode the BMP
            // code point as UTF-8 for completeness.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (i >= s.size()) return fail("unexpected end of input");
    char c = s[i];
    if (c == '{') {
      ++i;
      out.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (i < s.size() && s[i] == '}') {
        ++i;
        return true;
      }
      for (;;) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (i >= s.size() || s[i] != ':') return fail("expected ':'");
        ++i;
        JsonValue v;
        if (!parse_value(v)) return false;
        out.object.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (i < s.size() && s[i] == ',') {
          ++i;
          continue;
        }
        if (i < s.size() && s[i] == '}') {
          ++i;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++i;
      out.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (i < s.size() && s[i] == ']') {
        ++i;
        return true;
      }
      for (;;) {
        JsonValue v;
        if (!parse_value(v)) return false;
        out.array.push_back(std::move(v));
        skip_ws();
        if (i < s.size() && s[i] == ',') {
          ++i;
          continue;
        }
        if (i < s.size() && s[i] == ']') {
          ++i;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.string);
    }
    if (c == 't') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      out.kind = JsonValue::Kind::kNull;
      return literal("null");
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      const char* start = s.c_str() + i;
      char* end = nullptr;
      out.kind = JsonValue::Kind::kNumber;
      out.number = std::strtod(start, &end);
      if (end == start) return fail("bad number");
      out.string.assign(start, static_cast<std::size_t>(end - start));
      i += static_cast<std::size_t>(end - start);
      return true;
    }
    return fail("unexpected character");
  }
};

}  // namespace

bool json_parse(const std::string& text, JsonValue& out, std::string& error) {
  Parser p{text};
  out = JsonValue{};
  if (!p.parse_value(out)) {
    error = p.err;
    return false;
  }
  p.skip_ws();
  if (p.i != text.size()) {
    error = "trailing garbage at offset " + std::to_string(p.i);
    return false;
  }
  return true;
}

}  // namespace splitsim::obs
