#include "src/common/json_writer.h"

#include <gtest/gtest.h>

namespace faasnap {
namespace {

TEST(JsonWriter, EmptyObjectAndArray) {
  EXPECT_EQ(JsonWriter().BeginObject().EndObject().TakeString(), "{}");
  EXPECT_EQ(JsonWriter().BeginArray().EndArray().TakeString(), "[]");
}

TEST(JsonWriter, FieldsAndCommas) {
  JsonWriter json;
  json.BeginObject().Field("a", static_cast<int64_t>(1)).Field("b", "two").Field("c", true);
  EXPECT_EQ(json.EndObject().TakeString(), R"({"a":1,"b":"two","c":true})");
}

TEST(JsonWriter, NestedStructures) {
  JsonWriter json;
  json.BeginObject().Key("list").BeginArray();
  json.Value(static_cast<int64_t>(1)).Value(static_cast<int64_t>(2));
  json.BeginObject().Field("x", 1.5).EndObject();
  json.EndArray().EndObject();
  EXPECT_EQ(json.TakeString(), R"({"list":[1,2,{"x":1.5}]})");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter json;
  json.BeginObject().Field("k", "a\"b\\c\nd").EndObject();
  EXPECT_EQ(json.TakeString(), "{\"k\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonEscape, ControlCharacters) {
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
}

TEST(JsonWriter, NumericFormats) {
  JsonWriter json;
  json.BeginArray()
      .Value(static_cast<uint64_t>(18446744073709551615ull))
      .Value(static_cast<int64_t>(-5))
      .Value(3.25)
      .EndArray();
  EXPECT_EQ(json.TakeString(), "[18446744073709551615,-5,3.25]");
}

TEST(JsonWriterDeathTest, UnbalancedScopesAbort) {
  EXPECT_DEATH(
      {
        JsonWriter json;
        json.BeginObject();
        json.TakeString();
      },
      "unbalanced");
}

}  // namespace
}  // namespace faasnap
