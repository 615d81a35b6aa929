#include "src/common/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace faasnap {

JsonValue::Type JsonValue::type() const {
  return static_cast<Type>(value_.index());
}

Result<bool> JsonValue::AsBool() const {
  if (!is_bool()) {
    return InvalidArgumentError("JSON value is not a bool");
  }
  return std::get<bool>(value_);
}

Result<double> JsonValue::AsDouble() const {
  if (!is_number()) {
    return InvalidArgumentError("JSON value is not a number");
  }
  return std::get<double>(value_);
}

Result<int64_t> JsonValue::AsInt() const {
  ASSIGN_OR_RETURN(double d, AsDouble());
  // Range-check before the cast: converting a double outside int64_t's range
  // is undefined behaviour. Both bounds are exact powers of two.
  if (!(d >= -0x1p63 && d < 0x1p63)) {
    return InvalidArgumentError("JSON number is out of the int64 range");
  }
  const auto i = static_cast<int64_t>(d);
  if (static_cast<double>(i) != d) {
    return InvalidArgumentError("JSON number is not an integer");
  }
  return i;
}

Result<std::string> JsonValue::AsString() const {
  if (!is_string()) {
    return InvalidArgumentError("JSON value is not a string");
  }
  return std::get<std::string>(value_);
}

const JsonArray& JsonValue::array() const {
  FAASNAP_CHECK(is_array());
  return std::get<JsonArray>(value_);
}

const JsonObject& JsonValue::object() const {
  FAASNAP_CHECK(is_object());
  return std::get<JsonObject>(value_);
}

Result<JsonValue> JsonValue::Get(const std::string& key) const {
  if (!is_object()) {
    return InvalidArgumentError("JSON value is not an object");
  }
  const JsonObject& obj = std::get<JsonObject>(value_);
  auto it = obj.find(key);
  if (it == obj.end()) {
    return NotFoundError("missing JSON key: " + key);
  }
  return it->second;
}

bool JsonValue::Has(const std::string& key) const {
  return is_object() && std::get<JsonObject>(value_).count(key) > 0;
}

std::string JsonValue::GetStringOr(const std::string& key, const std::string& fallback) const {
  Result<JsonValue> v = Get(key);
  if (!v.ok()) {
    return fallback;
  }
  Result<std::string> s = v->AsString();
  return s.ok() ? *s : fallback;
}

double JsonValue::GetNumberOr(const std::string& key, double fallback) const {
  Result<JsonValue> v = Get(key);
  if (!v.ok()) {
    return fallback;
  }
  Result<double> d = v->AsDouble();
  return d.ok() ? *d : fallback;
}

int64_t JsonValue::GetIntOr(const std::string& key, int64_t fallback) const {
  Result<JsonValue> v = Get(key);
  if (!v.ok()) {
    return fallback;
  }
  Result<int64_t> i = v->AsInt();
  return i.ok() ? *i : fallback;
}

bool JsonValue::GetBoolOr(const std::string& key, bool fallback) const {
  Result<JsonValue> v = Get(key);
  if (!v.ok()) {
    return fallback;
  }
  Result<bool> b = v->AsBool();
  return b.ok() ? *b : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWhitespace();
    ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return InvalidArgumentError("JSON parse error at offset " + std::to_string(pos_) + ": " +
                                message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  Result<JsonValue> ParseValue() {
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kJsonMaxDepth) {
          return Error("nesting deeper than " + std::to_string(kJsonMaxDepth) + " levels");
        }
        ++depth_;
        Result<JsonValue> nested = text_[pos_] == '{' ? ParseObject() : ParseArray();
        --depth_;
        return nested;
      }
      case '"': {
        ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue(std::move(s));
      }
      case 't':
        return ParseLiteral("true", JsonValue(true));
      case 'f':
        return ParseLiteral("false", JsonValue(false));
      case 'n':
        return ParseLiteral("null", JsonValue(nullptr));
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseLiteral(const std::string& literal, JsonValue value) {
    if (text_.compare(pos_, literal.size(), literal) != 0) {
      return Error("invalid literal");
    }
    pos_ += literal.size();
    return value;
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("invalid number");
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
      return Error("invalid number: " + token);
    }
    return JsonValue(value);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) {
      return Error("expected string");
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape");
            }
          }
          // Basic multilingual plane only; encode as UTF-8.
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
          return Error("invalid escape");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseArray() {
    FAASNAP_CHECK(Consume('['));
    JsonArray items;
    SkipWhitespace();
    if (Consume(']')) {
      return JsonValue(std::move(items));
    }
    while (true) {
      SkipWhitespace();
      ASSIGN_OR_RETURN(JsonValue item, ParseValue());
      items.push_back(std::move(item));
      SkipWhitespace();
      if (Consume(']')) {
        return JsonValue(std::move(items));
      }
      if (!Consume(',')) {
        return Error("expected ',' or ']' in array");
      }
    }
  }

  Result<JsonValue> ParseObject() {
    FAASNAP_CHECK(Consume('{'));
    JsonObject members;
    SkipWhitespace();
    if (Consume('}')) {
      return JsonValue(std::move(members));
    }
    while (true) {
      SkipWhitespace();
      ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' after object key");
      }
      SkipWhitespace();
      ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      members.emplace(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) {
        return JsonValue(std::move(members));
      }
      if (!Consume(',')) {
        return Error("expected ',' or '}' in object");
      }
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  // containers open around pos_
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) { return Parser(text).Parse(); }

}  // namespace faasnap
