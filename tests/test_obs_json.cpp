// Edge-case tests for the obs JSON writer/parser pair: non-finite number
// policy, deep nesting, UTF-8 and \u escapes, and truncated-input fault
// injection. The telemetry exporter and the structured logger both lean
// on these behaviors, so they are pinned here rather than assumed.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace wimi::obs::json {
namespace {

TEST(ObsJson, NonFiniteNumbersSerializeAsNullAndRoundTrip) {
    // JSON cannot represent NaN/Inf; the writer's contract is null.
    EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(number(-std::numeric_limits<double>::infinity()), "null");

    // A document containing such a value stays parseable and the reader
    // sees an explicit null, not a garbage number.
    const Value doc = parse("{\"gauge\":" + number(NAN) + "}");
    const Value* gauge = doc.find("gauge");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->kind, Value::Kind::kNull);
}

TEST(ObsJson, FiniteNumbersRoundTripExactly) {
    for (const double value :
         {0.0, -0.0, 1.0, -1.5, 1e-9, 1e17, 0.1, 3.141592653589793,
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::denorm_min()}) {
        const Value parsed = parse(number(value));
        ASSERT_TRUE(parsed.is_number()) << number(value);
        EXPECT_EQ(parsed.num, value) << number(value);
    }
}

/// `depth` nested arrays around the number 42.
std::string nested_arrays(std::size_t depth) {
    return std::string(depth, '[') + "42" + std::string(depth, ']');
}

/// `depth` nested single-member objects {"k":...} around the number 42.
std::string nested_objects(std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) {
        text += "{\"k\":";
    }
    return text + "42" + std::string(depth, '}');
}

/// Runs `call`, which must throw wimi::Error, and returns its message.
template <typename Call>
std::string error_message(Call&& call) {
    try {
        call();
    } catch (const wimi::Error& e) {
        return e.what();
    }
    ADD_FAILURE() << "no wimi::Error thrown";
    return {};
}

TEST(ObsJson, DeepNestingParses) {
    // A document exactly at the nesting limit parses in full.
    const Value doc = parse(nested_arrays(kMaxDepth));
    const Value* v = &doc;
    std::size_t depth = 0;
    while (v->is_array()) {
        ASSERT_EQ(v->array.size(), 1u);
        v = &v->array[0];
        ++depth;
    }
    EXPECT_EQ(depth, kMaxDepth);
    ASSERT_TRUE(v->is_number());
    EXPECT_EQ(v->num, 42.0);

    const Value objects = parse(nested_objects(kMaxDepth));
    v = &objects;
    depth = 0;
    while (v->is_object()) {
        v = v->find("k");
        ASSERT_NE(v, nullptr);
        ++depth;
    }
    EXPECT_EQ(depth, kMaxDepth);
}

TEST(ObsJson, NestingPastTheLimitThrowsInsteadOfOverflowingTheStack) {
    // 100,000 levels (a 200 KB file) would overflow the stack of an
    // unbounded recursive descent; the parser stops one level past the
    // limit.
    const std::string message = "json::parse: nesting deeper than " +
                                std::to_string(kMaxDepth) + " levels";
    EXPECT_EQ(error_message([] { parse(nested_arrays(100000)); }), message);
    EXPECT_EQ(error_message([] { parse(nested_objects(100000)); }), message);
    EXPECT_EQ(error_message([] { parse(nested_arrays(kMaxDepth + 1)); }),
              message);
    EXPECT_EQ(error_message([] { parse(nested_objects(kMaxDepth + 1)); }),
              message);
    // Depth counts open containers, not siblings: a long flat array of
    // shallow members is fine.
    std::string wide = "[";
    for (int i = 0; i < 10000; ++i) {
        wide += i == 0 ? "[1]" : ",[1]";
    }
    EXPECT_EQ(parse(wide + "]").array.size(), 10000u);
}

TEST(ObsJson, Utf8PassesThroughEscapeAndParse) {
    // Multibyte UTF-8 must survive escape() untouched (only control
    // characters and the two JSON metacharacters are escaped) and parse
    // back byte-identically — component names and messages may carry it.
    const std::string text = "матеріал café 材料 🧪";
    EXPECT_EQ(escape(text), text);
    const Value parsed = parse("\"" + escape(text) + "\"");
    ASSERT_TRUE(parsed.is_string());
    EXPECT_EQ(parsed.string, text);
}

TEST(ObsJson, UnicodeEscapesDecodeToUtf8) {
    // \u escapes for BMP code points decode to UTF-8 bytes.
    const Value parsed = parse("\"\\u0041\\u00e9\\u4e2d\"");
    ASSERT_TRUE(parsed.is_string());
    EXPECT_EQ(parsed.string, "Aé中");
}

TEST(ObsJson, ControlCharactersRoundTripThroughEscape) {
    std::string text = "line1\nline2\ttab \"quoted\" back\\slash";
    text += '\x01';  // arbitrary control byte -> \u0001
    const std::string escaped = escape(text);
    EXPECT_NE(escaped.find("\\n"), std::string::npos);
    EXPECT_NE(escaped.find("\\u0001"), std::string::npos);
    const Value parsed = parse("\"" + escaped + "\"");
    ASSERT_TRUE(parsed.is_string());
    EXPECT_EQ(parsed.string, text);
}

TEST(ObsJson, TruncatedInputThrowsAtEveryPrefix) {
    // Fault injection: a reader fed a torn write (every proper prefix of
    // a valid document) must throw wimi::Error — never crash, never
    // return a silently-misparsed value. Mirrors what wimi_obs tail sees
    // when a process dies mid-line.
    const std::string doc =
        "{\"schema\":\"wimi.log.v1\",\"ts_us\":12.5,\"ok\":true,"
        "\"fields\":{\"list\":[1,null,\"x\\u00e9\"],\"neg\":-3.5e2}}";
    ASSERT_NO_THROW(parse(doc));
    for (std::size_t len = 0; len < doc.size(); ++len) {
        EXPECT_THROW(parse(std::string_view(doc).substr(0, len)),
                     wimi::Error)
            << "prefix length " << len;
    }
}

TEST(ObsJson, MalformedDocumentsThrow) {
    EXPECT_THROW(parse(""), wimi::Error);
    EXPECT_THROW(parse("{\"a\":1} extra"), wimi::Error);  // trailing garbage
    EXPECT_THROW(parse("{\"a\" 1}"), wimi::Error);        // missing colon
    EXPECT_THROW(parse("[1,]"), wimi::Error);             // dangling comma
    EXPECT_THROW(parse("\"\\q\""), wimi::Error);          // unknown escape
    EXPECT_THROW(parse("\"\\u00g1\""), wimi::Error);      // bad hex
    EXPECT_THROW(parse("01x"), wimi::Error);              // malformed number
    EXPECT_THROW(parse("nul"), wimi::Error);              // truncated keyword
}

TEST(ObsJson, ObjectMemberOrderIsPreservedAndFindWorks) {
    const Value doc = parse("{\"z\":1,\"a\":2,\"z\":3}");
    ASSERT_TRUE(doc.is_object());
    ASSERT_EQ(doc.object.size(), 3u);
    EXPECT_EQ(doc.object[0].first, "z");
    EXPECT_EQ(doc.object[1].first, "a");
    // find returns the first match; lookups on non-objects return null.
    EXPECT_EQ(doc.find("z")->num, 1.0);
    EXPECT_EQ(doc.find("missing"), nullptr);
    EXPECT_EQ(doc.find("a")->find("anything"), nullptr);
}

}  // namespace
}  // namespace wimi::obs::json
