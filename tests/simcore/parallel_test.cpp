#include "simcore/parallel.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace bgckpt::sim {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<int> hits(257, 0);
  parallelFor(hits.size(), 4,
              [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, InlineWhenSingleThreaded) {
  std::vector<std::size_t> order;
  parallelFor(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ZeroJobsIsANoop) {
  bool touched = false;
  parallelFor(0, 8, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, RethrowsLowestIndexException) {
  try {
    parallelFor(16, 4, [](std::size_t i) {
      if (i == 3 || i == 11) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
}

}  // namespace
}  // namespace bgckpt::sim
