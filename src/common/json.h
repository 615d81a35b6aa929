// Minimal JSON document model and parser (no external dependencies).
//
// Used by the daemon's config-driven experiment runner: the paper's artifact
// drives its evaluation from JSON configs (test-2inputs.json etc.), and this
// repository mirrors that workflow. The parser accepts standard JSON (RFC 8259)
// minus exotic number forms; errors carry a byte offset.

#ifndef FAASNAP_SRC_COMMON_JSON_H_
#define FAASNAP_SRC_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/common/status.h"

namespace faasnap {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
// std::map keeps deterministic iteration order for tests and rendering.
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}            // NOLINT
  JsonValue(bool b) : value_(b) {}                          // NOLINT
  JsonValue(double d) : value_(d) {}                        // NOLINT
  JsonValue(int64_t i) : value_(static_cast<double>(i)) {}  // NOLINT
  JsonValue(std::string s) : value_(std::move(s)) {}        // NOLINT
  JsonValue(const char* s) : value_(std::string(s)) {}      // NOLINT
  JsonValue(JsonArray a) : value_(std::move(a)) {}          // NOLINT
  JsonValue(JsonObject o) : value_(std::move(o)) {}         // NOLINT

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // Checked accessors: a non-OK Result on type mismatch.
  Result<bool> AsBool() const;
  Result<double> AsDouble() const;
  Result<int64_t> AsInt() const;  // rejects non-integral numbers
  Result<std::string> AsString() const;

  // Unchecked views; abort on type mismatch (use after checking type()).
  const JsonArray& array() const;
  const JsonObject& object() const;

  // Object member lookup: NotFound if absent or not an object.
  Result<JsonValue> Get(const std::string& key) const;
  bool Has(const std::string& key) const;

  // Typed convenience with defaults for optional config fields.
  std::string GetStringOr(const std::string& key, const std::string& fallback) const;
  double GetNumberOr(const std::string& key, double fallback) const;
  int64_t GetIntOr(const std::string& key, int64_t fallback) const;
  bool GetBoolOr(const std::string& key, bool fallback) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;
};

// Deepest array/object nesting ParseJson accepts; deeper input is
// InvalidArgument. The parser recurses once per level, so without a bound a
// hostile file picks the stack depth. Every document the repo reads or writes
// nests at most 5 levels.
inline constexpr int kJsonMaxDepth = 128;

// Parses a complete JSON document (trailing whitespace allowed, nothing else).
Result<JsonValue> ParseJson(const std::string& text);

}  // namespace faasnap

#endif  // FAASNAP_SRC_COMMON_JSON_H_
