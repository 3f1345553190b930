// Unit tests for support utilities: RNG determinism and distribution,
// text helpers, assertion macros.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "confail/support/assert.hpp"
#include "confail/support/id_table.hpp"
#include "confail/support/rng.hpp"
#include "confail/support/text.hpp"

using confail::SplitMix64;
using confail::Xoshiro256;

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroIsDeterministicPerSeed) {
  Xoshiro256 a(7), b(7), c(8);
  bool anyDiff = false;
  for (int i = 0; i < 100; ++i) {
    std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    anyDiff = anyDiff || (va != c.next());
  }
  EXPECT_TRUE(anyDiff);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(123);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, ShuffleIsAPermutation) {
  Xoshiro256 rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  confail::shuffle(v, rng);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Text, JoinAndSplitRoundTrip) {
  std::vector<std::string> parts{"a", "bb", "ccc"};
  EXPECT_EQ(confail::join(parts, ","), "a,bb,ccc");
  EXPECT_EQ(confail::split("a,bb,ccc", ','), parts);
  EXPECT_EQ(confail::join({}, ","), "");
  EXPECT_EQ(confail::split("", ',').size(), 1u);
}

TEST(Text, PadTo) {
  EXPECT_EQ(confail::padTo("ab", 4), "ab  ");
  EXPECT_EQ(confail::padTo("abcdef", 4), "abcd");
}

TEST(Text, WrapBreaksOnSpaces) {
  auto lines = confail::wrap("one two three four", 9);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one two");
  EXPECT_EQ(lines[1], "three");
  EXPECT_EQ(lines[2], "four");
}

TEST(Text, WrapHardBreaksLongWords) {
  auto lines = confail::wrap("abcdefghij", 4);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0], "abcd");
}

TEST(Text, RenderTableProducesGrid) {
  std::string t = confail::renderTable({{"h1", "h2"}, {"a", "bb"}}, 10);
  EXPECT_NE(t.find("| h1"), std::string::npos);
  EXPECT_NE(t.find("| a"), std::string::npos);
  EXPECT_NE(t.find("+--"), std::string::npos);
}

TEST(Assert, CheckThrowsTypedException) {
  EXPECT_THROW(CONFAIL_CHECK(false, confail::UsageError, "bad"),
               confail::UsageError);
  EXPECT_NO_THROW(CONFAIL_CHECK(true, confail::UsageError, "ok"));
}

TEST(IdTable, FarIdsStaySparseAndMoveInWhenTheDenseEndReachesThem) {
  confail::IdTable<int> t;
  t[5000] = 7;          // far past the empty dense end: one sparse node
  t[0xffffffffu] = 9;   // a sentinel id is never dense
  EXPECT_EQ(t.size(), 0x100000000ull);
  EXPECT_EQ(t.find(4999), nullptr);
  for (std::uint32_t id = 0; id < 6000; ++id) {
    if (id != 5000) t[id] = static_cast<int>(id);
  }
  ASSERT_NE(t.find(5000), nullptr);
  EXPECT_EQ(*t.find(5000), 7);  // kept when the dense part grew over it
  EXPECT_EQ(t[5000], 7);
  EXPECT_EQ(*t.find(0xffffffffu), 9);

  std::vector<std::uint32_t> ids;
  t.forEach([&ids](std::uint32_t id, int) { ids.push_back(id); });
  ASSERT_EQ(ids.size(), 6001u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(ids.back(), 0xffffffffu);
}
