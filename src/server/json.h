// A minimal JSON value, parser, and serializer for the query service's
// JSON-lines protocol (DESIGN.md section 10). The rest of the tree only
// ever WRITES JSON (trace sinks, bench --json); the server is the first
// component that must also read it, so this stays deliberately small:
// UTF-8 in/out, int64-exact integers, objects with stable (sorted) key
// order so responses are byte-reproducible.
#ifndef SEPREC_SERVER_JSON_H_
#define SEPREC_SERVER_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/status.h"

namespace seprec::json {

class Value;
using Array = std::vector<Value>;
// std::map (not unordered) so Serialize emits keys in one canonical order.
using Object = std::map<std::string, Value>;

// A JSON document node. Integers that fit int64 parse exactly (the
// protocol carries ids, budgets, and row counts); anything fractional or
// out of range falls back to double.
class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(int64_t n) : v_(n) {}
  Value(int n) : v_(static_cast<int64_t>(n)) {}
  Value(uint64_t n);  // falls back to double above INT64_MAX
  Value(double d) : v_(d) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(std::string_view s) : v_(std::string(s)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_number() const { return is_int() || std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool(bool fallback = false) const;
  int64_t as_int(int64_t fallback = 0) const;
  double as_double(double fallback = 0.0) const;
  const std::string& as_string() const;  // empty string when not a string
  const Array& as_array() const;         // empty array when not an array
  const Object& as_object() const;       // empty object when not an object

  // Object member lookup; returns a shared null Value when absent or when
  // this is not an object — chainable without null checks.
  const Value& Get(std::string_view key) const;
  bool Has(std::string_view key) const;

 private:
  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array,
               Object>
      v_;
};

// Parses exactly one JSON document (trailing whitespace allowed, anything
// else after it is an error). Depth-limited; invalid input returns
// INVALID_ARGUMENT with a byte offset in the message.
StatusOr<Value> Parse(std::string_view text);

// Compact one-line serialization: no spaces, object keys sorted, strings
// escaped per RFC 8259 (control characters as \u00XX).
std::string Serialize(const Value& value);

// Escapes `s` as the INTERIOR of a JSON string (no surrounding quotes).
std::string Escape(std::string_view s);

// As Escape, appending to *out (no temporary string per call).
void EscapeTo(std::string_view s, std::string* out);

}  // namespace seprec::json

#endif  // SEPREC_SERVER_JSON_H_
