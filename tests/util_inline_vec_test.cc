// InlineVec backs the waiter lists of sim::Event and sim::Signal: the first
// N elements live inside the object, growth spills to the heap, and a move
// steals a spilled buffer so Signal::Fire can detach a waiter generation in
// O(1). These tests pin the storage behaviour those callers rely on.

#include <cstddef>
#include <utility>

#include <gtest/gtest.h>

#include "util/inline_vec.h"

namespace emsim {
namespace {

using Vec = InlineVec<int, 4>;

// True when `p` points into the bytes of `v` itself, i.e. the inline buffer.
// Equality only: ordering unrelated pointers is unspecified.
bool PointsInside(const Vec& v, const int* p) {
  const auto* base = reinterpret_cast<const unsigned char*>(&v);
  const auto* at = reinterpret_cast<const unsigned char*>(p);
  for (size_t i = 0; i < sizeof(Vec); ++i) {
    if (base + i == at) {
      return true;
    }
  }
  return false;
}

TEST(InlineVecTest, StaysInlineUpToCapacity) {
  Vec v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 4; ++i) {
    v.push_back(10 + i);
  }
  EXPECT_EQ(v.size(), 4u);
  EXPECT_TRUE(PointsInside(v, v.begin()));
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i], 10 + static_cast<int>(i));
  }
}

TEST(InlineVecTest, SpillToHeapPreservesOrder) {
  Vec v;
  for (int i = 0; i < 100; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(v.size(), 100u);
  EXPECT_FALSE(PointsInside(v, v.begin()));
  int expected = 0;
  for (int value : v) {
    EXPECT_EQ(value, expected++);
  }
  EXPECT_EQ(expected, 100);
}

TEST(InlineVecTest, PopBackDropsTheLastElement) {
  Vec v;
  for (int i = 0; i < 6; ++i) {
    v.push_back(i);
  }
  v.pop_back();
  v.pop_back();
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[3], 3);
  v[3] = 42;
  EXPECT_EQ(*(v.end() - 1), 42);
}

TEST(InlineVecTest, ClearKeepsHeapBufferForReuse) {
  Vec v;
  for (int i = 0; i < 9; ++i) {
    v.push_back(i);
  }
  const int* heap = v.begin();
  v.clear();
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 9; ++i) {
    v.push_back(-i);
  }
  EXPECT_EQ(v.begin(), heap);  // Refilling to the old size allocates nothing.
  EXPECT_EQ(v[8], -8);
}

TEST(InlineVecTest, MoveOfInlineContentsCopiesAndEmptiesSource) {
  Vec source;
  source.push_back(7);
  source.push_back(8);
  Vec moved(std::move(source));
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_TRUE(PointsInside(moved, moved.begin()));
  EXPECT_EQ(moved[0], 7);
  EXPECT_EQ(moved[1], 8);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move): emptied by contract.
}

TEST(InlineVecTest, MoveOfHeapContentsStealsBuffer) {
  Vec source;
  for (int i = 0; i < 12; ++i) {
    source.push_back(i);
  }
  const int* heap = source.begin();
  Vec moved(std::move(source));
  EXPECT_EQ(moved.begin(), heap);
  ASSERT_EQ(moved.size(), 12u);
  EXPECT_EQ(moved[11], 11);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move): emptied by contract.
}

// Signal::Fire keeps using its waiter list after moving the old generation
// out, so a moved-from vector must be a valid, inline, empty vector.
TEST(InlineVecTest, MovedFromVectorIsReusable) {
  Vec source;
  for (int i = 0; i < 6; ++i) {
    source.push_back(i);
  }
  Vec moved(std::move(source));
  source.push_back(99);  // NOLINT(bugprone-use-after-move): reuse is the contract.
  source.push_back(100);
  ASSERT_EQ(source.size(), 2u);
  EXPECT_TRUE(PointsInside(source, source.begin()));
  EXPECT_EQ(source[0], 99);
  EXPECT_EQ(source[1], 100);
  EXPECT_EQ(moved.size(), 6u);
}

}  // namespace
}  // namespace emsim
