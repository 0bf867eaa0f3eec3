#include "dmc/enabled_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "rng/xoshiro.hpp"
#include "rng/distributions.hpp"

namespace casurf {
namespace {

TEST(EnabledSet, StartsEmpty) {
  const EnabledSet set(16);
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(3));
}

TEST(EnabledSet, InsertContains) {
  EnabledSet set(16);
  set.insert(5);
  set.insert(7);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(5));
  EXPECT_TRUE(set.contains(7));
  EXPECT_FALSE(set.contains(6));
}

TEST(EnabledSet, InsertIdempotent) {
  EnabledSet set(16);
  set.insert(5);
  set.insert(5);
  EXPECT_EQ(set.size(), 1u);
}

TEST(EnabledSet, EraseSwapsWithLast) {
  EnabledSet set(16);
  set.insert(1);
  set.insert(2);
  set.insert(3);
  set.erase(2);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_FALSE(set.contains(2));
  EXPECT_TRUE(set.contains(1));
  EXPECT_TRUE(set.contains(3));
  // Dense positions remain valid.
  std::set<SiteIndex> seen;
  for (std::size_t i = 0; i < set.size(); ++i) seen.insert(set.at(i));
  EXPECT_EQ(seen, (std::set<SiteIndex>{1, 3}));
}

TEST(EnabledSet, EraseIdempotent) {
  EnabledSet set(16);
  set.insert(1);
  set.erase(1);
  set.erase(1);
  EXPECT_TRUE(set.empty());
}

TEST(EnabledSet, EraseLastElement) {
  EnabledSet set(8);
  set.insert(4);
  set.erase(4);
  EXPECT_FALSE(set.contains(4));
  set.insert(4);
  EXPECT_TRUE(set.contains(4));
}

TEST(EnabledSet, RandomisedInvariantCheck) {
  // Mirror against std::set under a random op sequence.
  EnabledSet set(64);
  std::set<SiteIndex> mirror;
  Xoshiro256 rng(77);
  for (int i = 0; i < 5000; ++i) {
    const auto site = static_cast<SiteIndex>(uniform_below(rng, 64));
    if (uniform01(rng) < 0.5) {
      set.insert(site);
      mirror.insert(site);
    } else {
      set.erase(site);
      mirror.erase(site);
    }
    ASSERT_EQ(set.size(), mirror.size());
    ASSERT_EQ(set.contains(site), mirror.count(site) == 1);
  }
  std::set<SiteIndex> dense(set.items().begin(), set.items().end());
  EXPECT_EQ(dense, mirror);
}

TEST(EnabledSet, UniformSamplingOverItems) {
  EnabledSet set(10);
  for (SiteIndex s = 0; s < 5; ++s) set.insert(s);
  Xoshiro256 rng(9);
  std::vector<int> counts(5, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[set.at(uniform_below(rng, set.size()))];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(n), 0.2, 0.01);
  }
}

// assign(site, now) against a reference that applies insert's and erase's
// semantics to a std::vector by linear search: an insert of a non-member
// appends it, an erase of a member moves the last member into its slot,
// and every other call changes nothing. Sets over 1 to 64 sites, 2,000
// random calls each (no-ops and repeats included), the insert share
// switching between 0.8 and 0.2 every 250 calls so that sets fill and
// drain, and a clear() every 1,000 calls.
TEST(EnabledSet, AssignMatchesLinearSearchReference) {
  Xoshiro256 rng(2024);
  std::size_t calls = 0;
  for (SiteIndex sites = 1; sites <= 64; ++sites) {
    EnabledSet set(sites);
    std::vector<SiteIndex> ref;
    for (int i = 1; i <= 2000; ++i, ++calls) {
      const auto site = static_cast<SiteIndex>(uniform_below(rng, sites));
      const bool now = uniform01(rng) < ((i / 250) % 2 == 0 ? 0.8 : 0.2);
      const auto it = std::find(ref.begin(), ref.end(), site);
      if (now && it == ref.end()) ref.push_back(site);
      if (!now && it != ref.end()) {
        *it = ref.back();
        ref.pop_back();
      }
      set.assign(site, now);

      ASSERT_EQ(set.size(), ref.size()) << sites << " sites, call " << i;
      const auto items = set.items();
      ASSERT_TRUE(std::equal(items.begin(), items.end(), ref.begin(), ref.end()))
          << sites << " sites, call " << i;
      std::vector<bool> member(sites, false);
      for (const SiteIndex s : ref) member[s] = true;
      for (SiteIndex s = 0; s < sites; ++s) {
        ASSERT_EQ(set.contains(s), member[s]) << sites << " sites, call " << i;
      }
      if (i % 1000 == 0) {
        set.clear();
        ref.clear();
      }
    }
  }
  EXPECT_GE(calls, 100000u);
}

}  // namespace
}  // namespace casurf
