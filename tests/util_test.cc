#include <gtest/gtest.h>

#include <clocale>
#include <cstdio>
#include <limits>
#include <string>

#include "util/hash.h"
#include "util/json.h"
#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/symbol_table.h"

namespace chronolog {
namespace {

// --------------------------------------------------------------------------
// Status
// --------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad rule");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad rule");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad rule");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
  EXPECT_FALSE(InvalidArgumentError("a") == NotFoundError("a"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return NotFoundError("inner"); };
  auto outer = [&]() -> Status {
    CHRONOLOG_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(outer().code(), StatusCode::kNotFound);
}

TEST(StatusTest, StatusCodeNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted),
            "RESOURCE_EXHAUSTED");
}

// --------------------------------------------------------------------------
// Result<T>
// --------------------------------------------------------------------------

TEST(ResultTest, CarriesValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, CarriesError) {
  Result<int> r(NotFoundError("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, OkStatusIsRejected) {
  Result<int> r(Status::Ok());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto inner = []() -> Result<int> { return 5; };
  auto outer = [&]() -> Result<int> {
    CHRONOLOG_ASSIGN_OR_RETURN(int x, inner());
    return x + 1;
  };
  ASSERT_TRUE(outer().ok());
  EXPECT_EQ(outer().value(), 6);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto inner = []() -> Result<int> { return OutOfRangeError("deep"); };
  auto outer = [&]() -> Result<int> {
    CHRONOLOG_ASSIGN_OR_RETURN(int x, inner());
    return x + 1;
  };
  EXPECT_EQ(outer().status().code(), StatusCode::kOutOfRange);
}

// --------------------------------------------------------------------------
// SymbolTable
// --------------------------------------------------------------------------

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable table;
  SymbolId a = table.Intern("hunter");
  SymbolId b = table.Intern("hunter");
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SymbolTableTest, DistinctNamesDistinctIds) {
  SymbolTable table;
  SymbolId a = table.Intern("a");
  SymbolId b = table.Intern("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Name(a), "a");
  EXPECT_EQ(table.Name(b), "b");
}

TEST(SymbolTableTest, FindWithoutInterning) {
  SymbolTable table;
  EXPECT_EQ(table.Find("ghost"), kInvalidSymbol);
  SymbolId a = table.Intern("real");
  EXPECT_EQ(table.Find("real"), a);
  EXPECT_TRUE(table.Contains("real"));
  EXPECT_FALSE(table.Contains("ghost"));
}

TEST(SymbolTableTest, ManySymbolsStayStable) {
  SymbolTable table;
  std::vector<SymbolId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(table.Intern("sym" + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(table.Name(ids[i]), "sym" + std::to_string(i));
  }
}

// --------------------------------------------------------------------------
// string_util / hash
// --------------------------------------------------------------------------

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, IsAllDigits) {
  EXPECT_TRUE(IsAllDigits("0123"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_FALSE(IsAllDigits("12a"));
  EXPECT_FALSE(IsAllDigits("-1"));
}

TEST(StringUtilTest, ParseUint64) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));  // overflow
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("x", &v));
}

TEST(HashTest, VectorHashDistinguishesOrder) {
  VectorHash h;
  std::vector<uint32_t> a{1, 2};
  std::vector<uint32_t> b{2, 1};
  EXPECT_NE(h(a), h(b));
}

TEST(HashTest, VectorHashDistinguishesLength) {
  VectorHash h;
  std::vector<uint32_t> a{1};
  std::vector<uint32_t> b{1, 0};
  EXPECT_NE(h(a), h(b));
}

// --------------------------------------------------------------------------
// JSON parser (the POST /query request side)
// --------------------------------------------------------------------------

TEST(JsonParserTest, ScalarsAndWhitespace) {
  auto v = ParseJson("  true ");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_bool());
  EXPECT_TRUE(v->bool_value);
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_FALSE(ParseJson("false")->bool_value);
}

TEST(JsonParserTest, NumbersKeepIntegralExactness) {
  auto i = ParseJson("42");
  ASSERT_TRUE(i.ok());
  EXPECT_TRUE(i->is_number());
  EXPECT_TRUE(i->is_integer);
  EXPECT_EQ(i->int_value, 42);
  auto neg = ParseJson("-7");
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(neg->int_value, -7);
  auto d = ParseJson("2.5e1");
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->is_integer);
  EXPECT_DOUBLE_EQ(d->number, 25.0);
  // Leading zeros are not JSON.
  EXPECT_FALSE(ParseJson("012").ok());
}

TEST(JsonParserTest, StringsWithEscapes) {
  auto v = ParseJson(R"("a\"b\nAé")");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->string_value, "a\"b\nA\xc3\xa9");
  // Surrogate pair: U+1F600 -> 4-byte UTF-8.
  auto emoji = ParseJson(R"("😀")");
  ASSERT_TRUE(emoji.ok()) << emoji.status();
  EXPECT_EQ(emoji->string_value, "\xf0\x9f\x98\x80");
  // A lone high surrogate is malformed.
  EXPECT_FALSE(ParseJson(R"("\ud83d")").ok());
}

TEST(JsonParserTest, ObjectsArraysAndFind) {
  auto v = ParseJson(
      R"j({"query":"even(T)","max_rows":5,"tags":[1,2,3],"nested":{"a":null}})j");
  ASSERT_TRUE(v.ok()) << v.status();
  ASSERT_TRUE(v->is_object());
  const JsonValue* q = v->Find("query");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->string_value, "even(T)");
  EXPECT_EQ(v->Find("max_rows")->int_value, 5);
  ASSERT_TRUE(v->Find("tags")->is_array());
  EXPECT_EQ(v->Find("tags")->array.size(), 3u);
  EXPECT_TRUE(v->Find("nested")->Find("a")->is_null());
  EXPECT_EQ(v->Find("absent"), nullptr);
}

TEST(JsonParserTest, ErrorsCarryByteOffsets) {
  auto bad = ParseJson("{\"a\": }");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("byte"), std::string::npos);
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1,}").ok());
  EXPECT_FALSE(ParseJson("'single'").ok());
}

TEST(FormatDoubleTest, RoundTripsAndStaysJsonSafe) {
  EXPECT_EQ(FormatDouble(0.0), "0");
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(-3.25), "-3.25");
  EXPECT_EQ(FormatDouble(42.0), "42");
  // Shortest-round-trip: parsing the output recovers the exact value.
  const double v = 0.042137;
  auto parsed = ParseJson(FormatDouble(v));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->number, v);
  // Non-finite values cannot appear in JSON; they degrade to "0".
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(FormatDoubleTest, IgnoresCommaDecimalLocale) {
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous != nullptr ? previous : "C";
  const bool have_locale =
      std::setlocale(LC_NUMERIC, "de_DE.UTF-8") != nullptr ||
      std::setlocale(LC_NUMERIC, "de_DE.utf8") != nullptr;
  const std::string rendered = FormatDouble(1.5);
  const std::string to_string_rendered = std::to_string(1.5);
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_EQ(rendered, "1.5");
  if (have_locale) {
    // The bug being guarded against: std::to_string picked up the comma.
    EXPECT_NE(to_string_rendered.find(','), std::string::npos)
        << "de_DE locale installed but did not use ',' — check the fixture";
  }
}

TEST(FormatSignificantTest, MatchesPrintfG6InTheCLocale) {
  const double values[] = {0.0,     -0.0,     1.0,       0.5,     -3.25,
                           42.0,    1e-5,     1.234567e-5, 123456.0,
                           1234567.0, 999999.5, 0.1,     2.0 / 3.0,
                           1e21,    -7.5e-300, 4096.0,   1e6,     65536.125};
  for (double v : values) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.6g", v);
    EXPECT_EQ(FormatSignificant(v), expected) << v;
  }
  EXPECT_EQ(FormatSignificant(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(FormatSignificant(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(JsonParserTest, DepthIsCapped) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
  std::string ok(32, '[');
  ok += std::string(32, ']');
  EXPECT_TRUE(ParseJson(ok).ok());
}

}  // namespace
}  // namespace chronolog
