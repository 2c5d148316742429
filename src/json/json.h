// Minimal JSON value / writer / parser.
//
// The paper: "Diogenes collected performance data is stored in a standard
// format (JSON) that can be read by other tools." Stage outputs are
// serialized between the tool's separate runs, and the final analysis is
// exported as JSON; this module provides that interchange layer without
// any external dependency.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace diog::json {

class Value;

using Array = std::vector<Value>;
// std::map keeps object keys sorted, which makes serialized exports
// byte-stable across runs — important for golden tests.
using Object = std::map<std::string, Value, std::less<>>;

class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  Value(unsigned i) : v_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : v_(i) {}
  Value(std::uint64_t i) : v_(static_cast<std::int64_t>(i)) {}
  Value(double d) : v_(d) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string_view s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  [[nodiscard]] bool is_double() const { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(v_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(v_); }

  // Checked accessors: throw diog::Error on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;  // accepts int too
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();

  // Object convenience: get member, throwing if absent / wrong kind.
  [[nodiscard]] const Value& at(std::string_view key) const;
  // True membership test for objects.
  [[nodiscard]] bool contains(std::string_view key) const;
  // Array convenience.
  [[nodiscard]] const Value& at(std::size_t index) const;
  [[nodiscard]] std::size_t size() const;  // array or object arity

  // Mutating object access (creates the member, converting null -> object).
  Value& operator[](std::string_view key);

  bool operator==(const Value& other) const { return v_ == other.v_; }

  // Compact single-line serialization.
  [[nodiscard]] std::string dump() const;
  // Pretty-printed with 2-space indentation.
  [[nodiscard]] std::string dump_pretty() const;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               Array, Object>
      v_;
};

// Parse a complete JSON document; throws diog::Error with a line/column
// message on malformed input. Trailing whitespace is allowed, trailing
// garbage is not.
Value parse(std::string_view text);

// File round-trip helpers (the CLI writes exports with save_file).
Value load_file(const std::string& path);
void save_file(const std::string& path, const Value& v);

}  // namespace diog::json
