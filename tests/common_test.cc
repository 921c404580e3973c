#include <gtest/gtest.h>

#include <cctype>
#include <set>

#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace webdis {
namespace {

// -- Status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, EveryFactoryProducesMatchingCode) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::NetworkError("x").code(), StatusCode::kNetworkError);
  EXPECT_EQ(Status::ConnectionRefused("x").code(),
            StatusCode::kConnectionRefused);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::TimedOut("x").code(), StatusCode::kTimedOut);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IoError("a"));
}

// -- Result -------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  int half = 0;
  WEBDIS_ASSIGN_OR_RETURN(half, Half(x));
  *out = half;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseAssignOrReturn(7, &out).code(), StatusCode::kInvalidArgument);
}

// -- Strings ------------------------------------------------------------------

TEST(StringsTest, ToLower) {
  EXPECT_EQ(ToLower("AbC123!"), "abc123!");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringsTest, Contains) {
  EXPECT_TRUE(Contains("hello world", "lo wo"));
  EXPECT_FALSE(Contains("hello", "world"));
  EXPECT_TRUE(Contains("abc", ""));
}

TEST(StringsTest, ContainsIgnoreCase) {
  EXPECT_TRUE(ContainsIgnoreCase("The CONVENER is here", "convener"));
  EXPECT_TRUE(ContainsIgnoreCase("Laboratories", "LAB"));
  EXPECT_FALSE(ContainsIgnoreCase("short", "a longer needle"));
  EXPECT_TRUE(ContainsIgnoreCase("anything", ""));
}

TEST(StringsTest, ContainsIgnoreCaseMatchesLoweringDefinition) {
  // The definition: lower-case fresh copies of both strings, then search.
  // The in-place fold must agree on random byte strings over an alphabet of
  // letters, their ASCII neighbours ('@' '[' '`' '{') and bytes >= 0x80
  // (Latin-1 letters, and 0xC1/0xE1, which are 'A'/'a' plus the high bit),
  // which std::tolower leaves alone in the C locale.
  const auto by_lowering = [](std::string_view h, std::string_view n) {
    return ToLower(h).find(ToLower(n)) != std::string::npos;
  };
  static constexpr char kAlphabet[] = {
      'a', 'A', 'b', 'B', 'z', 'Z', '@', '[', '`', '{', ' ', '\0',
      '\x80', '\xC0', '\xC1', '\xE0', '\xE1', '\xFF'};
  Rng rng(42);
  const auto random_bytes = [&](size_t max_len) {
    std::string s(rng.Uniform(max_len + 1), ' ');
    for (char& c : s) c = kAlphabet[rng.Uniform(sizeof(kAlphabet))];
    return s;
  };
  int matches = 0;
  for (int i = 0; i < 40000; ++i) {
    const std::string h = random_bytes(12);
    std::string n = random_bytes(4);
    if (i % 4 != 0 && !h.empty()) {
      // A case-flipped slice of the haystack: at its first offset, ending at
      // its last, or anywhere.
      size_t from = rng.Uniform(h.size());
      size_t len = 1 + rng.Uniform(h.size() - from);
      if (i % 4 == 1) from = 0;
      if (i % 4 == 2) len = h.size() - from;
      n = h.substr(from, len);
      for (char& c : n) {
        if (rng.Bernoulli(0.5)) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
      }
    }
    const bool want = by_lowering(h, n);
    ASSERT_EQ(ContainsIgnoreCase(h, n), want) << i;
    matches += want ? 1 : 0;
  }
  EXPECT_GT(matches, 20000);
  // Repeated prefixes: the match starts inside a failed partial match.
  EXPECT_TRUE(ContainsIgnoreCase("aaab", "AAB"));
  EXPECT_TRUE(ContainsIgnoreCase("xAaAaB", "aab"));
  EXPECT_FALSE(ContainsIgnoreCase("aaaa", "aab"));
  // First and last offsets.
  EXPECT_TRUE(ContainsIgnoreCase("Convener of", "CONVENER"));
  EXPECT_TRUE(ContainsIgnoreCase("the CONVENER", "convener"));
  // High bytes match only themselves: no Latin-1 case folding.
  EXPECT_FALSE(ContainsIgnoreCase("\xC0", "\xE0"));
  EXPECT_TRUE(ContainsIgnoreCase("x\xC9y", "X\xC9Y"));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("http://x", "http://"));
  EXPECT_FALSE(StartsWith("x", "http://"));
  EXPECT_TRUE(EndsWith("index.html", ".html"));
  EXPECT_FALSE(EndsWith("html", "index.html"));
}

TEST(StringsTest, SplitPreservesEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("solo", ','), (std::vector<std::string>{"solo"}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"only"}, ", "), "only");
}

TEST(StringsTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%s", ""), "");
}

TEST(StringsTest, ParseUint64) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("12345", &v));
  EXPECT_EQ(v, 12345u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));  // overflow
  EXPECT_FALSE(ParseUint64("12a", &v));
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("-3", &v));
}

// -- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const uint64_t v = rng.UniformRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all of 3, 4, 5 hit
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Bernoulli(0.3);
  }
  EXPECT_GT(hits, 2600);
  EXPECT_LT(hits, 3400);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(7);
  std::vector<int> v{1, 2, 3, 4, 5};
  rng.Shuffle(&v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 5u);
}

}  // namespace
}  // namespace webdis
