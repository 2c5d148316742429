#include "json/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>

#include "support/error.h"
#include "support/input_file.h"

namespace diog::json {

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw Error(std::string("json: value is not ") + wanted);
}

void escape_to(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Promote via unsigned char: a plain (signed) char would
          // sign-extend and hand %x a negative int.
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out += '"';
}

void number_to(double d, std::string& out) {
  if (std::isnan(d) || std::isinf(d)) {
    // JSON has no NaN/Inf; stage data never produces them, but be safe.
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

}  // namespace

bool Value::as_bool() const {
  if (const auto* b = std::get_if<bool>(&v_)) return *b;
  type_error("bool");
}

std::int64_t Value::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return *i;
  type_error("int");
}

double Value::as_double() const {
  if (const auto* d = std::get_if<double>(&v_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v_)) {
    return static_cast<double>(*i);
  }
  type_error("number");
}

const std::string& Value::as_string() const {
  if (const auto* s = std::get_if<std::string>(&v_)) return *s;
  type_error("string");
}

const Array& Value::as_array() const {
  if (const auto* a = std::get_if<Array>(&v_)) return *a;
  type_error("array");
}

Array& Value::as_array() {
  if (auto* a = std::get_if<Array>(&v_)) return *a;
  type_error("array");
}

const Object& Value::as_object() const {
  if (const auto* o = std::get_if<Object>(&v_)) return *o;
  type_error("object");
}

Object& Value::as_object() {
  if (auto* o = std::get_if<Object>(&v_)) return *o;
  type_error("object");
}

const Value& Value::at(std::string_view key) const {
  const Object& o = as_object();
  const auto it = o.find(key);
  if (it == o.end()) throw Error("json: missing key '" + std::string(key) + "'");
  return it->second;
}

bool Value::contains(std::string_view key) const {
  const auto* o = std::get_if<Object>(&v_);
  return o != nullptr && o->find(key) != o->end();
}

const Value& Value::at(std::size_t index) const {
  const Array& a = as_array();
  if (index >= a.size()) throw Error("json: array index out of range");
  return a[index];
}

std::size_t Value::size() const {
  if (const auto* a = std::get_if<Array>(&v_)) return a->size();
  if (const auto* o = std::get_if<Object>(&v_)) return o->size();
  type_error("array or object");
}

Value& Value::operator[](std::string_view key) {
  if (is_null()) v_ = Object{};
  return as_object()[std::string(key)];
}

namespace {

void dump_to(const Value& v, std::string& out, int indent, int depth);

void dump_array(const Array& a, std::string& out, int indent, int depth) {
  if (a.empty()) {
    out += "[]";
    return;
  }
  out += '[';
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i != 0) out += ',';
    if (indent >= 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * (depth + 1)), ' ');
    }
    dump_to(a[i], out, indent, depth + 1);
  }
  if (indent >= 0) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
  }
  out += ']';
}

void dump_object(const Object& o, std::string& out, int indent, int depth) {
  if (o.empty()) {
    out += "{}";
    return;
  }
  out += '{';
  bool first = true;
  for (const auto& [k, v] : o) {
    if (!first) out += ',';
    first = false;
    if (indent >= 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * (depth + 1)), ' ');
    }
    escape_to(k, out);
    out += indent >= 0 ? ": " : ":";
    dump_to(v, out, indent, depth + 1);
  }
  if (indent >= 0) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
  }
  out += '}';
}

void dump_to(const Value& v, std::string& out, int indent, int depth) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_int()) {
    out += std::to_string(v.as_int());
  } else if (v.is_double()) {
    number_to(v.as_double(), out);
  } else if (v.is_string()) {
    escape_to(v.as_string(), out);
  } else if (v.is_array()) {
    dump_array(v.as_array(), out, indent, depth);
  } else {
    dump_object(v.as_object(), out, indent, depth);
  }
}

}  // namespace

std::string Value::dump() const {
  std::string out;
  dump_to(*this, out, /*indent=*/-1, 0);
  return out;
}

std::string Value::dump_pretty() const {
  std::string out;
  dump_to(*this, out, /*indent=*/2, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over the full JSON grammar.

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) error("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void error(const std::string& msg) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw Error("json parse error at " + std::to_string(line) + ":" +
                std::to_string(col) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) error("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      error(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        error("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        error("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        error("invalid literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object o;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(o));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') error("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      o[std::move(key)] = parse_value();
      skip_ws();
      const char c = take();
      if (c == '}') return Value(std::move(o));
      if (c != ',') {
        --pos_;
        error("expected ',' or '}' in object");
      }
    }
  }

  Value parse_array() {
    expect('[');
    Array a;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(a));
    }
    while (true) {
      a.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') return Value(std::move(a));
      if (c != ',') {
        --pos_;
        error("expected ',' or ']' in array");
      }
    }
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
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
        --pos_;
        error("invalid \\u escape");
      }
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        error("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = take();
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
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDCxx low surrogate.
            if (take() != '\\' || take() != 'u') {
              error("unpaired surrogate in string");
            }
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) error("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            error("unpaired low surrogate in string");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          error("invalid escape sequence");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      error("invalid number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        error("digit required after decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        error("digit required in exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Value(static_cast<std::int64_t>(v));
      }
      // Integer overflow: fall through to double representation.
    }
    return Value(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value load_file(const std::string& path) {
  const std::optional<std::string> text = support::read_file(path);
  if (!text) throw Error("json: cannot open file '" + path + "'");
  return parse(*text);
}

void save_file(const std::string& path, const Value& v) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("json: cannot write file '" + path + "'");
  out << v.dump_pretty() << '\n';
}

}  // namespace diog::json
