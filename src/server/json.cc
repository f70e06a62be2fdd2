#include "server/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/string_util.h"

namespace seprec::json {

namespace {

const Value& NullValue() {
  static const Value kNull;
  return kNull;
}
const std::string& EmptyString() {
  static const std::string kEmpty;
  return kEmpty;
}
const Array& EmptyArray() {
  static const Array kEmpty;
  return kEmpty;
}
const Object& EmptyObject() {
  static const Object kEmpty;
  return kEmpty;
}

}  // namespace

Value::Value(uint64_t n) {
  if (n <= static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    v_ = static_cast<int64_t>(n);
  } else {
    v_ = static_cast<double>(n);
  }
}

bool Value::as_bool(bool fallback) const {
  if (const bool* b = std::get_if<bool>(&v_)) return *b;
  return fallback;
}

int64_t Value::as_int(int64_t fallback) const {
  if (const int64_t* i = std::get_if<int64_t>(&v_)) return *i;
  if (const double* d = std::get_if<double>(&v_)) {
    return static_cast<int64_t>(*d);
  }
  return fallback;
}

double Value::as_double(double fallback) const {
  if (const double* d = std::get_if<double>(&v_)) return *d;
  if (const int64_t* i = std::get_if<int64_t>(&v_)) {
    return static_cast<double>(*i);
  }
  return fallback;
}

const std::string& Value::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&v_)) return *s;
  return EmptyString();
}

const Array& Value::as_array() const {
  if (const Array* a = std::get_if<Array>(&v_)) return *a;
  return EmptyArray();
}

const Object& Value::as_object() const {
  if (const Object* o = std::get_if<Object>(&v_)) return *o;
  return EmptyObject();
}

const Value& Value::Get(std::string_view key) const {
  if (const Object* o = std::get_if<Object>(&v_)) {
    auto it = o->find(std::string(key));
    if (it != o->end()) return it->second;
  }
  return NullValue();
}

bool Value::Has(std::string_view key) const {
  const Object* o = std::get_if<Object>(&v_);
  return o != nullptr && o->count(std::string(key)) > 0;
}

namespace {

// Recursive-descent parser. Tracks position for error messages and depth
// to bound stack use on adversarial input (the socket is local-only, but a
// malformed client should get an error, not a crash).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Value> ParseDocument() {
    SkipWhitespace();
    SEPREC_ASSIGN_OR_RETURN(Value v, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(std::string_view what) const {
    return InvalidArgumentError(
        StrCat("JSON parse error at byte ", pos_, ": ", what));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  StatusOr<Value> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(depth);
      case '[': return ParseArray(depth);
      case '"': {
        SEPREC_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Value(std::move(s));
      }
      case 't':
        if (ConsumeLiteral("true")) return Value(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return Value(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return Value(nullptr);
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  StatusOr<Value> ParseObject(int depth) {
    ++pos_;  // '{'
    Object obj;
    SkipWhitespace();
    if (Consume('}')) return Value(std::move(obj));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      SEPREC_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SEPREC_ASSIGN_OR_RETURN(Value v, ParseValue(depth + 1));
      obj.insert_or_assign(std::move(key), std::move(v));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Value(std::move(obj));
      return Error("expected ',' or '}' in object");
    }
  }

  StatusOr<Value> ParseArray(int depth) {
    ++pos_;  // '['
    Array arr;
    SkipWhitespace();
    if (Consume(']')) return Value(std::move(arr));
    while (true) {
      SEPREC_ASSIGN_OR_RETURN(Value v, ParseValue(depth + 1));
      arr.push_back(std::move(v));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Value(std::move(arr));
      return Error("expected ',' or ']' in array");
    }
  }

  StatusOr<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      char e = text_[pos_++];
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
          SEPREC_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
          // Combine a surrogate pair when one follows; a lone surrogate
          // encodes as the replacement character rather than erroring.
          if (cp >= 0xD800 && cp <= 0xDBFF &&
              text_.substr(pos_, 2) == "\\u") {
            size_t save = pos_;
            pos_ += 2;
            SEPREC_ASSIGN_OR_RETURN(uint32_t lo, ParseHex4());
            if (lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              pos_ = save;
              cp = 0xFFFD;
            }
          } else if (cp >= 0xD800 && cp <= 0xDFFF) {
            cp = 0xFFFD;
          }
          AppendUtf8(cp, &out);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  StatusOr<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<uint32_t>(c - 'A' + 10);
      else return Error("invalid hex digit in \\u escape");
    }
    return v;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  StatusOr<Value> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") return Error("invalid number");
    if (integral) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Value(static_cast<int64_t>(v));
      }
      // Out of int64 range: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("invalid number");
    return Value(d);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

void SerializeTo(const Value& value, std::string* out);

void SerializeString(const std::string& s, std::string* out) {
  out->push_back('"');
  EscapeTo(s, out);
  out->push_back('"');
}

void SerializeTo(const Value& value, std::string* out) {
  if (value.is_null()) {
    *out += "null";
  } else if (value.is_bool()) {
    *out += value.as_bool() ? "true" : "false";
  } else if (value.is_int()) {
    *out += std::to_string(value.as_int());
  } else if (value.is_number()) {
    double d = value.as_double();
    if (std::isfinite(d)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      *out += buf;
    } else {
      *out += "null";  // JSON has no Inf/NaN
    }
  } else if (value.is_string()) {
    SerializeString(value.as_string(), out);
  } else if (value.is_array()) {
    out->push_back('[');
    bool first = true;
    for (const Value& v : value.as_array()) {
      if (!first) out->push_back(',');
      first = false;
      SerializeTo(v, out);
    }
    out->push_back(']');
  } else {
    out->push_back('{');
    bool first = true;
    for (const auto& [k, v] : value.as_object()) {
      if (!first) out->push_back(',');
      first = false;
      SerializeString(k, out);
      out->push_back(':');
      SerializeTo(v, out);
    }
    out->push_back('}');
  }
}

}  // namespace

StatusOr<Value> Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

std::string Serialize(const Value& value) {
  std::string out;
  SerializeTo(value, &out);
  return out;
}

std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  EscapeTo(s, &out);
  return out;
}

void EscapeTo(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace seprec::json
