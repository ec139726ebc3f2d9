#include "common/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace oscs {
namespace {

TEST(JsonNumber, RoundTripsDoublesAndMapsNonFiniteToNull) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(std::stod(json_number(0.1)), 0.1);
  EXPECT_EQ(std::stod(json_number(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(INFINITY), "null");
}

/// json_number's text is the printf "%.17g" rendering, byte for byte: a
/// seeded sweep over unit-interval values, raw finite bit patterns,
/// subnormals and the decimal-exponent edges.
TEST(JsonNumber, ByteIdenticalToPrintf17g) {
  const auto printf17g = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  std::vector<double> values = {
      0.0, -0.0, 1.0, 0.5, 1e21, 1e22, -1e21, 1e-5, 1e-4, 1e16, 1e17,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon()};
  Xoshiro256 rng(0x17C0FFEE);
  for (int i = 0; i < 20000; ++i) values.push_back(rng.uniform01());
  for (int i = 0; i < 20000; ++i) {
    const double v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) values.push_back(v);
  }
  for (int i = 0; i < 5000; ++i) {
    // Subnormals: zero exponent field, random sign and mantissa.
    values.push_back(
        std::bit_cast<double>(rng() & 0x800FFFFFFFFFFFFFULL));
  }
  for (double v : values) {
    ASSERT_EQ(json_number(v), printf17g(v)) << std::hexfloat << v;
  }
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonEscape, UsesShortEscapesForBackspaceAndFormFeed) {
  // Regression: \b and \f used to fall through to the \u00XX branch.
  EXPECT_EQ(json_escape("a\bb"), "a\\bb");
  EXPECT_EQ(json_escape("a\fb"), "a\\fb");
  EXPECT_EQ(json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
}

TEST(JsonWriter, BuildsNestedDocumentsWithCommasAndIndent) {
  JsonWriter json;
  json.begin_object()
      .field("name", "grid")
      .field("count", 2)
      .field("ok", true)
      .key("cells")
      .begin_array();
  json.begin_object().field("x", 0.5).end_object();
  json.begin_object().field("x", 1.5).end_object();
  json.end_array().end_object();
  ASSERT_TRUE(json.complete());
  const std::string text = json.str();
  EXPECT_EQ(text,
            "{\n"
            "  \"name\": \"grid\",\n"
            "  \"count\": 2,\n"
            "  \"ok\": true,\n"
            "  \"cells\": [\n"
            "    {\n"
            "      \"x\": 0.5\n"
            "    },\n"
            "    {\n"
            "      \"x\": 1.5\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriter, EmptyContainersStayOnOneLine) {
  JsonWriter json;
  json.begin_object().key("empty").begin_array().end_array().end_object();
  EXPECT_EQ(json.str(), "{\n  \"empty\": []\n}\n");
}

TEST(JsonWriter, RejectsStructuralMisuse) {
  {
    JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.value(1.0), std::logic_error);  // value without key
    EXPECT_THROW((void)json.str(), std::logic_error);  // still open
  }
  {
    JsonWriter json;
    json.begin_array();
    EXPECT_THROW(json.key("k"), std::logic_error);  // key inside array
    EXPECT_THROW(json.end_object(), std::logic_error);
  }
  {
    JsonWriter json;
    json.value(1.0);
    EXPECT_THROW(json.value(2.0), std::logic_error);  // second top level
  }
}

TEST(JsonWriter, CompactModeEmitsOneLine) {
  JsonWriter json(/*pretty=*/false);
  json.begin_object()
      .field("name", "grid")
      .field("count", 2)
      .key("cells")
      .begin_array()
      .value(0.5)
      .value(1.5)
      .end_array()
      .end_object();
  EXPECT_EQ(json.str(), "{\"name\":\"grid\",\"count\":2,\"cells\":[0.5,1.5]}\n");
}

TEST(JsonWriter, KeysAndValuesEscapeEveryClass) {
  // Every escape class between clean runs: quote, backslash, the five
  // short control escapes, \u00XX for the rest of C0 (0x00, 0x01, 0x1f),
  // and bytes that pass through unescaped (DEL, multi-byte UTF-8).
  const std::string text = std::string("a\"b\\c\bd\fe\nf\rg\th") +
                           std::string("\0", 1) + "i\x01j\x1f" "k\x7f" "l" +
                           "\xc3\xa9" "m";
  const std::string escaped =
      "a\\\"b\\\\c\\bd\\fe\\nf\\rg\\th\\u0000i\\u0001j\\u001fk\x7fl\xc3\xa9m";
  JsonWriter json(/*pretty=*/false);
  json.begin_object()
      .field(text, text)
      .field("", "")
      .field("\"", "\\")
      .key("n")
      .value(-42)
      .end_object();
  EXPECT_EQ(json.str(), "{\"" + escaped + "\":\"" + escaped +
                            "\",\"\":\"\",\"\\\"\":\"\\\\\",\"n\":-42}\n");
  EXPECT_EQ(json_escape(text), escaped);
  const JsonValue parsed = json_parse(json.str());
  ASSERT_EQ(parsed.members().size(), 4u);
  EXPECT_EQ(parsed.members()[0].first, text);
  EXPECT_EQ(parsed.members()[0].second.as_string(), text);
  EXPECT_EQ(parsed.members()[2].first, "\"");
  EXPECT_EQ(parsed.members()[2].second.as_string(), "\\");
}

TEST(JsonParse, ParsesScalarsContainersAndNesting) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_EQ(json_parse("true").as_bool(), true);
  EXPECT_EQ(json_parse("false").as_bool(), false);
  EXPECT_EQ(json_parse("-12.5e-1").as_number(), -1.25);
  EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");

  const JsonValue doc =
      json_parse("{\"a\": [1, 2, {\"b\": null}], \"c\": \"x\"}");
  ASSERT_TRUE(doc.is_object());
  const JsonValue* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[1].as_number(), 2.0);
  EXPECT_TRUE(a->items()[2].find("b")->is_null());
  EXPECT_EQ(doc.find("c")->as_string(), "x");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, DecodesStringEscapesIncludingSurrogatePairs) {
  EXPECT_EQ(json_parse("\"a\\\"\\\\\\/\\b\\f\\n\\r\\t\"").as_string(),
            "a\"\\/\b\f\n\r\t");
  EXPECT_EQ(json_parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(json_parse("\"\\u00e9\"").as_string(), "\xC3\xA9");      // é
  EXPECT_EQ(json_parse("\"\\u20ac\"").as_string(), "\xE2\x82\xAC");  // €
  // U+1F600 as a surrogate pair.
  EXPECT_EQ(json_parse("\"\\ud83d\\ude00\"").as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonParse, PreservesIntegerFidelityThroughAsUint64) {
  const std::uint64_t big = 0xDEADBEEFCAFEF00DULL;  // > 2^53
  EXPECT_EQ(json_parse(std::to_string(big)).as_uint64(), big);
  EXPECT_EQ(json_parse("0").as_uint64(), 0u);
  EXPECT_THROW((void)json_parse("-1").as_uint64(), std::invalid_argument);
  EXPECT_THROW((void)json_parse("1.5").as_uint64(), std::invalid_argument);
  EXPECT_THROW((void)json_parse("1e3").as_uint64(), std::invalid_argument);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                    // empty
      "  ",                  // only whitespace
      "{",                   // unterminated object
      "[1, 2",               // unterminated array
      "[1, 2,]",             // trailing comma
      "{\"a\": 1,}",         // trailing comma in object
      "{\"a\" 1}",           // missing colon
      "{a: 1}",              // unquoted key
      "{\"a\": 1} extra",    // trailing garbage
      "01",                  // leading zero
      "+1",                  // leading plus
      "1.",                  // empty fraction
      ".5",                  // missing integer part
      "1e",                  // empty exponent
      "nul",                 // broken literal
      "True",                // wrong case
      "'single'",            // wrong quotes
      "\"unterminated",      // unterminated string
      "\"bad\\x\"",          // invalid escape
      "\"\\u12\"",           // truncated \u
      "\"\\ud83d\"",         // lone high surrogate
      "\"\\ude00\"",         // lone low surrogate
      "\"tab\there\"",       // raw control char
      "{\"a\":1,\"a\":2}",   // duplicate key
      "// comment\n1",       // comments
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)json_parse(text), std::invalid_argument)
        << "accepted: " << text;
  }
}

TEST(JsonParse, OutOfRangeNumbersFollowStrtodSemantics) {
  // from_chars flags these as out of range; the parser must resolve them
  // locale-independently: overflow -> +-inf, underflow -> +-0.
  EXPECT_EQ(json_parse("1e999").as_number(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(json_parse("-1e999").as_number(),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(json_parse("1e-999").as_number(), 0.0);
  EXPECT_EQ(json_parse("-1e-999").as_number(), 0.0);
  EXPECT_EQ(json_parse("0.0000001e-999").as_number(), 0.0);
  const std::string huge = "9" + std::string(400, '0');  // 9e400, no 'e'
  EXPECT_EQ(json_parse(huge).as_number(),
            std::numeric_limits<double>::infinity());
}

TEST(JsonParse, RejectsPathologicalNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_THROW((void)json_parse(deep), std::invalid_argument);
}

TEST(JsonParse, AccessorsRejectTypeMismatch) {
  const JsonValue v = json_parse("[1]");
  EXPECT_THROW((void)v.as_bool(), std::invalid_argument);
  EXPECT_THROW((void)v.as_number(), std::invalid_argument);
  EXPECT_THROW((void)v.as_string(), std::invalid_argument);
  EXPECT_THROW((void)v.members(), std::invalid_argument);
  EXPECT_NO_THROW((void)v.items());
}

namespace {

/// Random string over byte classes that stress the escaper: ASCII, every
/// C0 control, quotes/backslashes, and multi-byte UTF-8.
std::string random_string(Xoshiro256& rng) {
  static const std::string utf8[] = {"\xC3\xA9", "\xE2\x82\xAC",
                                     "\xF0\x9F\x98\x80"};
  std::string s;
  const std::size_t n = rng() % 24;
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng() % 4) {
      case 0: s += static_cast<char>('a' + rng() % 26); break;
      case 1: s += static_cast<char>(rng() % 0x20); break;  // C0 control
      case 2: s += (rng() % 2) ? '"' : '\\'; break;
      case 3: s += utf8[rng() % 3]; break;
    }
  }
  return s;
}

}  // namespace

TEST(JsonRoundTrip, FuzzedStringsSurviveWriterThenStrictParser) {
  // The serving layer echoes user-supplied function ids into responses:
  // every escaper output must parse back to the original bytes under the
  // strict reader, in both pretty and compact modes.
  Xoshiro256 rng(0xF00DF00D);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string key = random_string(rng);
    const std::string value = random_string(rng);
    for (const bool pretty : {true, false}) {
      JsonWriter w(pretty);
      w.begin_object().key("k").value(key).key("v").value(value).end_object();
      const JsonValue doc = json_parse(w.str());
      ASSERT_EQ(doc.find("k")->as_string(), key) << "trial " << trial;
      ASSERT_EQ(doc.find("v")->as_string(), value) << "trial " << trial;
    }
  }
}

TEST(JsonRoundTrip, FuzzedNumbersSurviveWriterThenStrictParser) {
  Xoshiro256 rng(0xBEEF);
  for (int trial = 0; trial < 500; ++trial) {
    double v = 0.0;
    switch (trial % 4) {
      case 0: v = rng.uniform(-1.0, 1.0); break;
      case 1: v = rng.uniform(-1e18, 1e18); break;
      case 2: v = static_cast<double>(rng() % 1000000); break;
      case 3: v = rng.uniform01() * 1e-12; break;
    }
    JsonWriter w(/*pretty=*/false);
    w.begin_array().value(v).end_array();
    const JsonValue doc = json_parse(w.str());
    ASSERT_EQ(doc.items()[0].as_number(), v) << "trial " << trial;
  }
  // Non-finite values are emitted as null, which the parser accepts.
  JsonWriter w(/*pretty=*/false);
  w.begin_array()
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .end_array();
  const JsonValue doc = json_parse(w.str());
  EXPECT_TRUE(doc.items()[0].is_null());
  EXPECT_TRUE(doc.items()[1].is_null());
}

TEST(WriteTextFile, CreatesParentDirectories) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "oscs_json_test";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "a" / "b.json").string();
  write_text_file("{}\n", path, "test");
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "{}\n");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace oscs
