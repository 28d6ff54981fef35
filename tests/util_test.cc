#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "rational/rational.h"
#include "util/status.h"
#include "util/string_util.h"

namespace termilog {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad thing");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(StatusTest, FactoryCodes) {
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::NotFound("x").ToString(), "NOT_FOUND: x");
}

TEST(ResultTest, ValueAccess) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value(), 42);
}

TEST(ResultTest, ErrorAccess) {
  Result<int> bad = Status::Internal("boom");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "hello");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r = std::string("abc");
  EXPECT_EQ(r->size(), 3u);
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripWhitespace("hi"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("\t\na b\n"), "a b");
}

// What `std::ostream <<` prints for the arguments. StrCat must print the
// same bytes: report bytes and cache keys are built with it.
template <typename... Args>
std::string Streamed(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

template <typename T>
void ExpectIntegerExtremesMatchStream() {
  using limits = std::numeric_limits<T>;
  for (T value :
       {limits::min(), limits::max(), T(0), T(1), T(limits::max() / 3)}) {
    EXPECT_EQ(StrCat(value), Streamed(value)) << Streamed(value);
  }
}

TEST(StringUtilTest, StrCat) {
  EXPECT_EQ(StrCat("x", 1, "/", 2), "x1/2");
  EXPECT_EQ(StrCat(), "");

  // A stream prints bool as 1/0 and every char type as a character.
  EXPECT_EQ(StrCat(true, false), Streamed(true, false));
  EXPECT_EQ(StrCat('a', static_cast<signed char>('b'),
                   static_cast<unsigned char>('c')),
            Streamed('a', static_cast<signed char>('b'),
                     static_cast<unsigned char>('c')));
  EXPECT_EQ(StrCat(int8_t{65}, uint8_t{66}), "AB");

  ExpectIntegerExtremesMatchStream<short>();
  ExpectIntegerExtremesMatchStream<unsigned short>();
  ExpectIntegerExtremesMatchStream<int>();
  ExpectIntegerExtremesMatchStream<unsigned>();
  ExpectIntegerExtremesMatchStream<long>();
  ExpectIntegerExtremesMatchStream<unsigned long>();
  ExpectIntegerExtremesMatchStream<long long>();
  ExpectIntegerExtremesMatchStream<unsigned long long>();
  ExpectIntegerExtremesMatchStream<int64_t>();
  ExpectIntegerExtremesMatchStream<uint64_t>();
  ExpectIntegerExtremesMatchStream<size_t>();
  EXPECT_EQ(StrCat(INT64_MIN), "-9223372036854775808");
  EXPECT_EQ(StrCat(UINT64_MAX), "18446744073709551615");

  const char* c_string = "cs";
  std::string text = "str";
  std::string_view view = "view";
  EXPECT_EQ(StrCat(c_string, text, view, "lit"),
            Streamed(c_string, text, view, "lit"));

  // A Rational renders through its appender, inline and heap forms alike,
  // as the BigInt renderings of its numerator and denominator.
  auto reference = [](const Rational& value) {
    if (value.is_integer()) return value.num().ToString();
    return Streamed(value.num().ToString(), '/', value.den().ToString());
  };
  const Rational big = Rational(INT64_MAX) * Rational(INT64_MAX);
  for (const Rational& value :
       {Rational(-7, 3), Rational(INT64_MIN), Rational(0), big,
        -big / Rational(INT64_MAX - 1)}) {
    EXPECT_EQ(StrCat(value), reference(value));
    EXPECT_EQ(StrCat('<', value, '>'), Streamed('<', value, '>'));
  }
  EXPECT_EQ(StrCat(Rational(-7, 3)), "-7/3");
  EXPECT_EQ(StrCat(big), "85070591730234615847396907784232501249");

  std::string appended = "a";
  StrAppend(&appended, 1, '/', Rational(1, 2), true);
  EXPECT_EQ(appended, "a1/1/21");
}

}  // namespace
}  // namespace termilog
