// Tests of the JSON module (src/util/json.h): exact escapes, the writer's
// commas, splices and escapes, the reader's nesting limit, and a seeded
// malformed-input sweep in which every mutant of a valid request or golden
// lint report must parse or throw UsageError (the sanitizer build runs it
// under ASan/UBSan).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "util/errors.h"
#include "util/json.h"
#include "util/rng.h"

namespace bsr {
namespace {

TEST(JsonEscape, PinsEveryEscapeClass) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape("\x01\x1f"), "\\u0001\\u001f");
  EXPECT_EQ(json_escape("⊥"), "⊥");  // UTF-8 passes through.
  // Backspace and form feed have dedicated short escapes, not \u codes.
  EXPECT_EQ(json_escape("\b\f\r\t"), "\\b\\f\\r\\t");
  // A register name that is nothing but quotes and backslashes stays a
  // valid JSON string literal.
  EXPECT_EQ(json_escape("\"\\\""), "\\\"\\\\\\\"");
}

TEST(JsonWriter, PlacesCommasAroundEmptyAndNestedContainers) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("a").begin_array().end_array();
  w.key("b").begin_object().end_object();
  w.key("c").begin_array();
  w.begin_array().num(1).num(-2).end_array();
  w.begin_array().begin_array().str("x").end_array().boolean(false);
  w.end_array().begin_object().end_object().end_array();
  w.key("u").num(std::numeric_limits<std::uint64_t>::max());
  w.end_object();
  EXPECT_EQ(out, R"({"a":[],"b":{},"c":[[1,-2],[["x"],false],{}],)"
                 R"("u":18446744073709551615})");
}

TEST(JsonWriter, RawSplicesAFinishedValue) {
  std::string out = "prefix ";
  JsonWriter w(out);
  w.begin_object().key("payload").raw(R"({"x":[1,2]})");
  w.key("list").begin_array().raw("1").raw("{}").end_array().end_object();
  EXPECT_EQ(out, R"(prefix {"payload":{"x":[1,2]},"list":[1,{}]})");
}

TEST(JsonWriter, EscapedStringsRoundTripThroughTheReader) {
  const std::string nasty = "q\"b\\s\nn\rr\tt\bb\ff\x01u\x1f ⊥";
  std::string out;
  JsonWriter(out).begin_object().key("k\"").str(nasty).end_object();
  EXPECT_EQ(out, "{\"k\\\"\":\"q\\\"b\\\\s\\nn\\rr\\tt\\bb\\ff\\u0001u"
                 "\\u001f ⊥\"}");
  EXPECT_EQ(Json::parse(out).str_or("k\"", ""), nasty);
}

TEST(JsonReader, CapsNestingDepth) {
  EXPECT_TRUE(Json::parse(std::string(kMaxJsonDepth, '[') +
                          std::string(kMaxJsonDepth, ']'))
                  .is_array());
  for (const int depth : {kMaxJsonDepth + 1, 20000, 120000}) {
    try {
      (void)Json::parse(std::string(static_cast<std::size_t>(depth), '['));
      ADD_FAILURE() << "depth " << depth << " parsed";
    } catch (const UsageError& e) {
      EXPECT_STREQ(e.what(),
                   "malformed request JSON: nesting deeper than 64 at byte 64");
    }
  }
  std::string objects;
  for (int i = 0; i <= kMaxJsonDepth; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)Json::parse(objects), UsageError);
}

TEST(JsonReader, RejectsOutOfRangeNumbersAndBadEscapes) {
  EXPECT_EQ(Json::parse("-9223372036854775808").num(),
            std::numeric_limits<long>::min());
  for (const char* bad :
       {"9223372036854775808", "-9223372036854775809", R"("\u12")",
        R"("\uZZZZ")", R"("\u00e9")", R"("\x")", "-", "1.5", "[1,]",
        R"({"a"})", "nul", R"("open)", "[1] 2", ""}) {
    EXPECT_THROW((void)Json::parse(bad), UsageError) << bad;
  }
}

std::string golden(const std::string& file) {
  std::ifstream in(std::string(BSR_GOLDEN_DIR) + "/" + file);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// One seeded truncation, byte flip, bad \u escape, out-of-range number or
/// deep nesting of `doc`.
std::string mutate(std::string doc, Rng& rng) {
  static const char* const kInserts[] = {
      "\\u",     "\\u12g4", "\\u00e9", "\\ud800", "\\q",
      "99999999999999999999", "-99999999999999999999", "1e3", "0.5"};
  const auto at = [&] {
    return static_cast<std::size_t>(rng.below(doc.size() + 1));
  };
  switch (rng.below(4)) {
    case 0:
      doc.resize(at());
      break;
    case 1:
      if (!doc.empty()) {
        doc[at() % doc.size()] = static_cast<char>(rng.below(256));
      }
      break;
    case 2: {  // after a quote or colon, so it lands in a string or value
      const std::size_t mark = doc.find_first_of("\":", at());
      doc.insert(mark == std::string::npos ? doc.size() : mark + 1,
                 kInserts[rng.below(std::size(kInserts))]);
      break;
    }
    default: {
      const std::size_t depth = rng.below(rng.below(2) == 0 ? 200 : 100000);
      const bool arrays = rng.below(2) == 0;
      std::string open;
      for (std::size_t d = 0; d < depth; ++d) open += arrays ? "[" : "{\"a\":";
      doc.insert(rng.below(2) == 0 ? 0 : at(), open);
      if (rng.below(2) == 0) doc.append(depth, arrays ? ']' : '}');
    }
  }
  return doc;
}

TEST(JsonReader, SeededMalformedInputParsesOrThrowsUsageError) {
  const std::vector<std::string> corpus = {
      R"({"mode":"lint","protocols":["alg1"],"lint_mode":"static"})",
      R"({"mode":"explore","k":3,"crashes":1,"max_steps":1000})",
      golden("lint_interference.json"), golden("lint_steps.json"),
      golden("serve_lint.json")};
  for (const std::string& doc : corpus) {
    ASSERT_TRUE(Json::parse(doc).is_object());
  }
  long parsed = 0;
  long rejected = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    for (int i = 0; i < 1500; ++i) {
      std::string input = corpus[rng.below(corpus.size())];
      for (std::uint64_t m = 1 + rng.below(3); m > 0; --m) {
        input = mutate(std::move(input), rng);
      }
      try {
        (void)Json::parse(input);
        ++parsed;
      } catch (const UsageError&) {
        ++rejected;
      }
    }
  }
  // Both outcomes occur, so the sweep reaches the accepting paths too.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace bsr
