// The strict JSON substrate under the spec codecs and shard summaries:
// parse / serialize round-trips, duplicate-key and trailing-garbage
// rejection, line/column error positions, the nesting cap, number
// formatting that survives a parse-print cycle, and the
// uint64-as-hex-string convention.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace htnoc::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-17.5").as_number(), -17.5);
  EXPECT_DOUBLE_EQ(parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const Value v = parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  const Object& o = v.as_object();
  ASSERT_EQ(o.size(), 2u);
  const Array& a = v.find("a")->as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].as_number(), 1.0);
  EXPECT_EQ(a[2].find("b")->as_string(), "c");
  EXPECT_TRUE(v.find("d")->as_object().empty());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  const Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  const Object& o = v.as_object();
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
  EXPECT_EQ(to_string(v), R"({"z":1,"a":2,"m":3})");
}

TEST(Json, RejectsDuplicateKeys) {
  EXPECT_THROW(parse(R"({"a": 1, "a": 2})"), ParseError);
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_THROW(parse("{} x"), ParseError);
  EXPECT_THROW(parse("1 2"), ParseError);
  EXPECT_THROW(parse("[1],"), ParseError);
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* doc :
       {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "nul", "tru", "01", "+1",
        "1.", ".5", "\"unterminated", "\"bad\\q\"", "[1 2]", "{'a': 1}",
        "undefined", "NaN", "Infinity"}) {
    EXPECT_THROW(parse(doc), ParseError) << "doc: " << doc;
  }
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_GT(e.column(), 0);
  }
}

TEST(Json, NestingIsCappedWithAPositionedError) {
  const auto arrays = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  const auto objects = [](int depth) {
    std::string doc;
    for (int i = 0; i < depth; ++i) doc += R"({"a":)";
    return doc + "1" + std::string(static_cast<std::size_t>(depth), '}');
  };
  EXPECT_TRUE(parse(arrays(kMaxDepth)).is_array());
  EXPECT_TRUE(parse(objects(kMaxDepth)).is_object());
  try {
    (void)parse(arrays(kMaxDepth + 1));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), kMaxDepth + 1);  // the first '[' past the cap
  }
  EXPECT_THROW((void)parse(objects(kMaxDepth + 1)), ParseError);
  // Far past the cap: deep enough to overflow the stack without it.
  EXPECT_THROW((void)parse(arrays(200000)), ParseError);
}

TEST(Json, StringEscapes) {
  const Value v = parse(R"("a\"b\\c\/d\n\tAé")");
  EXPECT_EQ(v.as_string(), "a\"b\\c/d\n\tA\xC3\xA9");
  // Surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
  // Control characters must be escaped on the way out.
  EXPECT_EQ(to_string(Value(std::string("a\nb\x01"))), "\"a\\nb\\u0001\"");
}

TEST(Json, NumberFormattingRoundTrips) {
  for (const double x : {0.0, 1.0, -1.0, 0.5, 1.5, 0.1, 1.0 / 3.0,
                         1e-10, 123456789.0, 9007199254740992.0, 2.5e-17}) {
    const std::string s = format_double(x);
    EXPECT_DOUBLE_EQ(parse(s).as_number(), x) << "formatted: " << s;
  }
  // Integral doubles print without an exponent or fraction.
  EXPECT_EQ(format_double(3000.0), "3000");
  EXPECT_EQ(format_double(-7.0), "-7");
}

TEST(Json, ParsePrintFixedPoint) {
  const char* doc =
      R"({"modes":["none","lob"],"rates":[0.5,1],"noc":{"tdm":true},"x":null})";
  const std::string once = to_string(parse(doc));
  const std::string twice = to_string(parse(once));
  EXPECT_EQ(once, twice);
  EXPECT_EQ(once, doc);
}

TEST(Json, PrettyPrinting) {
  const std::string pretty = to_string(parse(R"({"a":[1,2]})"), 1);
  EXPECT_EQ(pretty, "{\n \"a\": [\n  1,\n  2\n ]\n}");
}

TEST(Json, AsUint64AcceptsNumbersAndStrings) {
  EXPECT_EQ(as_uint64(parse("42")), 42u);
  EXPECT_EQ(as_uint64(parse("\"0x5eed\"")), 0x5EEDu);
  EXPECT_EQ(as_uint64(parse("\"123\"")), 123u);
  // Full 64-bit range only via strings (doubles stop being exact at 2^53).
  EXPECT_EQ(as_uint64(parse("\"0xffffffffffffffff\"")),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW(as_uint64(parse("-1")), TypeError);
  EXPECT_THROW(as_uint64(parse("1.5")), TypeError);
  EXPECT_THROW(as_uint64(parse("9007199254740993")), TypeError);
  EXPECT_THROW(as_uint64(parse("\"nope\"")), TypeError);
  EXPECT_THROW(as_uint64(parse("true")), TypeError);
  // Octal literals keep working, like hex and decimal.
  EXPECT_EQ(as_uint64(parse("\"0173\"")), 0173u);
  // Overflow is an error, not a saturated 2^64-1.
  EXPECT_THROW((void)as_uint64(parse("\"999999999999999999999999999999\"")),
               TypeError);
  EXPECT_THROW((void)as_uint64(parse("\"0x10000000000000000\"")), TypeError);
  // Only a bare literal: no sign, no leading or trailing whitespace.
  for (const char* s : {"\"-1\"", "\" -1\"", "\"+1\"", "\" 1\"", "\"\\t1\"",
                        "\"1 \"", "\"\""}) {
    EXPECT_THROW((void)as_uint64(parse(s)), TypeError) << s;
  }
}

TEST(Json, TypeErrorsOnWrongAccess) {
  const Value v = parse("[1]");
  EXPECT_THROW(v.as_object(), TypeError);
  EXPECT_THROW(v.as_string(), TypeError);
  EXPECT_THROW(v.as_number(), TypeError);
  EXPECT_THROW(v.as_bool(), TypeError);
  EXPECT_NO_THROW(v.as_array());
}

TEST(Json, SetAppendsMembersInOrder) {
  Value v{Object{}};
  v.set("a", Value(1));
  v.set("b", Value(2));
  EXPECT_EQ(to_string(v), R"({"a":1,"b":2})");
  EXPECT_THROW(Value(7).set("x", Value(1)), TypeError);
}

}  // namespace
}  // namespace htnoc::json
