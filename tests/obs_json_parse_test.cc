// Adversarial corpus for obs::json_parse: every malformed document must
// produce a clean (false, error-with-offset) return — never a crash, hang,
// or a silently wrong value. The parser reads benchdiff/pvm-matrix inputs
// straight from disk, so hostile/truncated bytes are a normal input class.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/obs/json_parse.h"

namespace pvm::obs {
namespace {

// Expect a parse failure with a non-empty diagnostic.
void expect_rejected(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(json_parse(text, &value, &error)) << "input: " << text;
  EXPECT_FALSE(error.empty()) << "input: " << text;
}

TEST(JsonParseAdversarial, TruncatedDocuments) {
  for (const char* text :
       {"", "{", "[", "{\"a\"", "{\"a\":", "{\"a\":1", "{\"a\":1,", "[1,",
        "[1, 2", "tru", "fals", "nul", "-", "1e", "\"", "{\"a\": {\"b\": 1}"}) {
    expect_rejected(text);
  }
}

TEST(JsonParseAdversarial, UnterminatedStrings) {
  expect_rejected("\"abc");
  expect_rejected("\"abc\\");
  expect_rejected("{\"key");
  expect_rejected("{\"key\\\"");          // escaped quote, still unterminated
  expect_rejected("[\"a\", \"b]");
  expect_rejected("\"ends with escape \\");
}

TEST(JsonParseAdversarial, BadEscapes) {
  expect_rejected("\"\\x41\"");    // unknown escape
  expect_rejected("\"\\q\"");
  expect_rejected("\"\\u12\"");    // truncated \u
  expect_rejected("\"\\u12g4\"");  // non-hex digit
  expect_rejected("\"\\u\"");
}

TEST(JsonParseAdversarial, DeepNestingIsBoundedNotStackOverflow) {
  // Past the parser's depth cap the document is rejected with a clean
  // error; a recursive-descent parser without the cap would smash the
  // stack long before 100k frames.
  std::string deep;
  for (int i = 0; i < 100000; ++i) {
    deep += '[';
  }
  expect_rejected(deep);

  std::string deep_objects;
  for (int i = 0; i < 100000; ++i) {
    deep_objects += "{\"k\":";
  }
  expect_rejected(deep_objects);

  // At a comfortable depth the same shape parses fine.
  std::string shallow(64, '[');
  shallow += std::string(64, ']');
  JsonValue value;
  std::string error;
  EXPECT_TRUE(json_parse(shallow, &value, &error)) << error;
}

TEST(JsonParseAdversarial, NumericOverflowRejected) {
  expect_rejected("1e999");
  expect_rejected("-1e999");
  expect_rejected("[1, 2, 1e999]");
  expect_rejected("{\"v\": 1e400}");
  // Subnormal underflow is representable (rounds toward zero) — not an
  // error, just tiny.
  JsonValue value;
  std::string error;
  ASSERT_TRUE(json_parse("1e-999", &value, &error)) << error;
  EXPECT_TRUE(value.is_number());
  EXPECT_GE(value.number, 0.0);
}

TEST(JsonParseAdversarial, MalformedNumbers) {
  expect_rejected("1.2.3");
  expect_rejected("--1");
  expect_rejected("+1");
  expect_rejected("0x10");
  expect_rejected("1e+e");
  expect_rejected("nan");
  expect_rejected("Infinity");
}

TEST(JsonParseAdversarial, TrailingGarbage) {
  expect_rejected("{} {}");
  expect_rejected("1 2");
  expect_rejected("null,");
  expect_rejected("[1]]");
}

TEST(JsonParseAdversarial, DuplicateKeysKeepFirstForLookup) {
  // RFC 8259 leaves duplicate-key behavior unspecified; this parser keeps
  // every member in insertion order and find() returns the first, so a
  // malicious duplicate cannot shadow the value a checker already saw.
  JsonValue value;
  std::string error;
  ASSERT_TRUE(json_parse("{\"a\": 1, \"a\": 2}", &value, &error)) << error;
  ASSERT_TRUE(value.is_object());
  EXPECT_EQ(value.object.size(), 2u);
  const JsonValue* first = value.find("a");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->number, 1.0);
}

TEST(JsonParseAdversarial, ErrorsCarryByteOffsets) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(json_parse("{\"a\": tru}", &value, &error));
  EXPECT_NE(error.find("offset"), std::string::npos);
}

TEST(JsonCheckedIntegers, AcceptOnlyIntegersInRange) {
  const auto number = [](const char* text) {
    JsonValue v;
    std::string error;
    EXPECT_TRUE(json_parse(text, &v, &error)) << text << ": " << error;
    return v;
  };
  std::uint64_t u = 7;
  EXPECT_TRUE(json_u64(nullptr, &u));  // an absent member keeps its default
  EXPECT_EQ(u, 7u);
  for (const char* good : {"0", "42", "9007199254740993", "18446744073709549568"}) {
    const JsonValue v = number(good);
    EXPECT_TRUE(json_u64(&v, &u)) << good;
  }
  EXPECT_EQ(u, 18446744073709549568ull);  // the largest double below 2^64
  for (const char* bad : {"-1", "2.5", "18446744073709551616", "\"7\"", "null", "[1]"}) {
    const JsonValue v = number(bad);
    EXPECT_FALSE(json_u64(&v, &u)) << bad;
  }

  std::int64_t i = 0;
  for (const char* good : {"-1", "-9223372036854775808", "9223372036854774784"}) {
    const JsonValue v = number(good);
    EXPECT_TRUE(json_i64(&v, &i)) << good;
  }
  EXPECT_EQ(i, 9223372036854774784);
  for (const char* bad : {"-0.5", "9223372036854775808", "-9223372036856000000", "true"}) {
    const JsonValue v = number(bad);
    EXPECT_FALSE(json_i64(&v, &i)) << bad;
  }
}

}  // namespace
}  // namespace pvm::obs
