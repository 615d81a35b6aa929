// Minimal dependency-free streaming JSON emission.
//
// Lives in common so every layer — notably the observability layer's trace and
// metrics exporters — can emit JSON without depending on the report types.

#ifndef FAASNAP_SRC_COMMON_JSON_WRITER_H_
#define FAASNAP_SRC_COMMON_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/units.h"

namespace faasnap {

// Streaming JSON writer with explicit object/array scopes. Keys and string values
// are escaped; numbers are emitted with enough precision to round-trip.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Emits the key for the next value (valid only inside an object).
  JsonWriter& Key(const std::string& key);

  JsonWriter& Value(const std::string& v);
  JsonWriter& Value(const char* v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(double v);
  JsonWriter& Value(bool v);
  // Strong unit types serialize as their base unit (bytes / pages / ns), so a
  // field's JSON representation never changes when its C++ type is migrated
  // from a raw integer to the unit-safe wrapper.
  JsonWriter& Value(ByteCount v) { return Value(v.value()); }
  JsonWriter& Value(PageCount v) { return Value(v.value()); }
  JsonWriter& Value(Duration v) { return Value(v.nanos()); }
  JsonWriter& Value(SimTime v) { return Value(v.nanos()); }

  // Convenience: Key(k) + Value(v).
  template <typename T>
  JsonWriter& Field(const std::string& key, const T& v) {
    Key(key);
    return Value(v);
  }

  // The finished document. Aborts if scopes are unbalanced.
  std::string TakeString();

 private:
  void MaybeComma();
  void Raw(const std::string& s);

  std::string out_;
  std::vector<bool> needs_comma_;  // per open scope
  bool pending_key_ = false;
};

// Escapes a string for embedding in JSON (without surrounding quotes).
std::string JsonEscape(const std::string& s);

}  // namespace faasnap

#endif  // FAASNAP_SRC_COMMON_JSON_WRITER_H_
