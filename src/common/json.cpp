#include "common/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace htnoc::json {

std::string Value::type_name() const {
  switch (type_) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    int line = 1;
    int col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw ParseError(msg, line, col);
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }
  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c, const char* what) {
    if (eof() || text_[pos_] != c) fail(std::string("expected ") + what);
    ++pos_;
  }

  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        ++depth_;
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Value(parse_string());
      case 't':
        if (literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (literal("null")) return Value(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{', "'{'");
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      for (const auto& [k, v] : obj) {
        if (k == key) fail("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      expect(':', "':'");
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = take();
      if (c == '}') return Value(std::move(obj));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[', "'['");
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') return Value(std::move(arr));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return v;
  }

  std::string parse_string() {
    expect('"', "'\"'");
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char e = take();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (take() != '\\' || take() != 'u') {
              fail("unpaired surrogate in \\u escape");
            }
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) {
              fail("invalid low surrogate in \\u escape");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate in \\u escape");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
    if (peek() == '0') {
      ++pos_;  // no leading zeros
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string lexeme(text_.substr(start, pos_ - start));
    return Value(std::strtod(lexeme.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void write_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void write_value(std::string& out, const Value& v, int indent, int depth) {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.type()) {
    case Value::Type::kNull: out += "null"; break;
    case Value::Type::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Value::Type::kNumber: out += format_double(v.as_number()); break;
    case Value::Type::kString: write_escaped(out, v.as_string()); break;
    case Value::Type::kArray: {
      const Array& a = v.as_array();
      if (a.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i != 0) out.push_back(',');
        if (pretty) newline_pad(depth + 1);
        write_value(out, a[i], indent, depth + 1);
      }
      if (pretty) newline_pad(depth);
      out.push_back(']');
      break;
    }
    case Value::Type::kObject: {
      const Object& o = v.as_object();
      if (o.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i != 0) out.push_back(',');
        if (pretty) newline_pad(depth + 1);
        write_escaped(out, o[i].first);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        write_value(out, o[i].second, indent, depth + 1);
      }
      if (pretty) newline_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

void write(std::string& out, const Value& v, int indent) {
  write_value(out, v, indent, 0);
}

std::string to_string(const Value& v, int indent) {
  std::string out;
  write(out, v, indent);
  return out;
}

std::string format_double(double v) {
  char buf[40];
  if (v == 0.0) return "0";  // also normalizes -0
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; the codecs never emit them, but be safe.
    return v > 0 ? "1e999" : "-1e999";
  }
  if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {  // 2^53
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == v) break;
  }
  return buf;
}

std::uint64_t as_uint64(const Value& v) {
  if (v.is_number()) {
    const double d = v.as_number();
    if (d < 0 || d != std::floor(d) || d >= 9007199254740992.0) {
      throw TypeError("expected unsigned integer, got " + format_double(d));
    }
    return static_cast<std::uint64_t>(d);
  }
  if (v.is_string()) {
    const std::string& s = v.as_string();
    const auto bad = [&s] {
      return TypeError("expected unsigned integer, got \"" + s + "\"");
    };
    // strtoull would skip leading whitespace, accept a sign (wrapping "-1"
    // to 2^64-1) and saturate on overflow; an unsigned literal starts with
    // a digit and fits in 64 bits.
    if (s.empty() || s.front() < '0' || s.front() > '9') throw bad();
    char* end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(s.c_str(), &end, 0);
    if (*end != '\0' || errno == ERANGE) throw bad();
    return static_cast<std::uint64_t>(x);
  }
  throw TypeError("expected unsigned integer, got " + v.type_name());
}

}  // namespace htnoc::json
