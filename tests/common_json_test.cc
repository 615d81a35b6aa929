#include "src/common/json.h"

#include <gtest/gtest.h>

namespace faasnap {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_EQ(*ParseJson("true")->AsBool(), true);
  EXPECT_EQ(*ParseJson("false")->AsBool(), false);
  EXPECT_DOUBLE_EQ(*ParseJson("3.5")->AsDouble(), 3.5);
  EXPECT_EQ(*ParseJson("-42")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(*ParseJson("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(*ParseJson("\"hi\"")->AsString(), "hi");
}

TEST(JsonParse, WhitespaceTolerant) {
  Result<JsonValue> v = ParseJson("  {\n \"a\" : [ 1 , 2 ]\t}\n ");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->Get("a")->array().size(), 2u);
}

TEST(JsonParse, NestedDocument) {
  const std::string doc = R"({
    "name": "test",
    "functions": ["json", "image"],
    "reps": 3,
    "nested": {"deep": {"value": true}},
    "mixed": [1, "two", null, {"x": -1.5}]
  })";
  Result<JsonValue> v = ParseJson(doc);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v->Get("name")->AsString(), "test");
  EXPECT_EQ(v->Get("functions")->array().size(), 2u);
  EXPECT_EQ(*v->Get("reps")->AsInt(), 3);
  EXPECT_EQ(*v->Get("nested")->Get("deep")->Get("value")->AsBool(), true);
  const JsonArray mixed = v->Get("mixed")->array();  // copy: Get returns a temporary
  ASSERT_EQ(mixed.size(), 4u);
  EXPECT_TRUE(mixed[2].is_null());
  EXPECT_DOUBLE_EQ(*mixed[3].Get("x")->AsDouble(), -1.5);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(*ParseJson(R"("a\"b\\c\nd\te")")->AsString(), "a\"b\\c\nd\te");
  EXPECT_EQ(*ParseJson(R"("Aé")")->AsString(), "A\xc3\xa9");
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "\"unterminated",
                          "[1 2]", "{\"a\":1,}", "01a", "nan", "--3", "1 2"}) {
    Result<JsonValue> v = ParseJson(bad);
    EXPECT_FALSE(v.ok()) << "accepted: " << bad;
  }
}

TEST(JsonParse, ErrorsCarryOffset) {
  Result<JsonValue> v = ParseJson("{\"a\": qqq}");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("offset"), std::string::npos);
}

TEST(JsonParse, RejectsHostileNestingWithoutRecursingIntoIt) {
  // 100,000 levels would overflow the stack if the parser followed them.
  const std::string deep = std::string(100000, '[') + std::string(100000, ']');
  Result<JsonValue> v = ParseJson(deep);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v.status().message().find("nesting"), std::string::npos);
}

TEST(JsonParse, NestingExactlyAtTheLimitParses) {
  const auto nested_arrays = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  Result<JsonValue> at_limit = ParseJson(nested_arrays(kJsonMaxDepth));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().message();
  const JsonValue* level = &*at_limit;
  for (int i = 1; i < kJsonMaxDepth; ++i) {
    ASSERT_EQ(level->array().size(), 1u);
    level = &level->array()[0];
  }
  EXPECT_TRUE(level->array().empty());
  EXPECT_EQ(ParseJson(nested_arrays(kJsonMaxDepth + 1)).status().code(),
            StatusCode::kInvalidArgument);

  // Objects and arrays share one depth count.
  std::string mixed;
  for (int i = 0; i < kJsonMaxDepth; ++i) {
    mixed += i % 2 == 0 ? "{\"k\":" : "[";
  }
  mixed += "1";
  for (int i = kJsonMaxDepth - 1; i >= 0; --i) {
    mixed += i % 2 == 0 ? "}" : "]";
  }
  EXPECT_TRUE(ParseJson(mixed).ok());
  EXPECT_FALSE(ParseJson("[" + mixed + "]").ok());
}

TEST(JsonValueAccess, TypeChecks) {
  JsonValue v = *ParseJson(R"({"s":"x","n":1.5,"i":7,"b":true,"a":[],"o":{}})");
  EXPECT_FALSE(v.Get("s")->AsBool().ok());
  EXPECT_FALSE(v.Get("n")->AsInt().ok());  // non-integral
  EXPECT_TRUE(v.Get("i")->AsInt().ok());
  EXPECT_FALSE(v.Get("b")->AsString().ok());
  EXPECT_TRUE(v.Get("a")->is_array());
  EXPECT_TRUE(v.Get("o")->is_object());
  EXPECT_FALSE(v.Get("missing").ok());
  EXPECT_TRUE(v.Has("s"));
  EXPECT_FALSE(v.Has("zzz"));
}

TEST(JsonValueAccess, AsIntRangeChecksBeforeConverting) {
  // Out-of-range doubles must not reach the int64_t conversion (undefined
  // behaviour); -2^63 is exactly representable and converts.
  for (const char* text : {"1e300", "-1e300", "9223372036854775808"}) {
    Result<int64_t> i = ParseJson(text)->AsInt();
    ASSERT_FALSE(i.ok()) << text;
    EXPECT_EQ(i.status().code(), StatusCode::kInvalidArgument) << text;
  }
  EXPECT_EQ(*ParseJson("-9223372036854775808")->AsInt(), INT64_MIN);
}

TEST(JsonValueAccess, DefaultedGetters) {
  JsonValue v = *ParseJson(R"({"s":"x","i":7,"b":true})");
  EXPECT_EQ(v.GetStringOr("s", "d"), "x");
  EXPECT_EQ(v.GetStringOr("zzz", "d"), "d");
  EXPECT_EQ(v.GetIntOr("i", 0), 7);
  EXPECT_EQ(v.GetIntOr("zzz", 9), 9);
  EXPECT_EQ(v.GetBoolOr("b", false), true);
  EXPECT_EQ(v.GetBoolOr("zzz", true), true);
  EXPECT_DOUBLE_EQ(v.GetNumberOr("zzz", 2.5), 2.5);
  // Wrong-typed fields fall back too.
  EXPECT_EQ(v.GetIntOr("s", 3), 3);
}

}  // namespace
}  // namespace faasnap
