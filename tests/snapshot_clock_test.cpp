// The snapshot-version clock (snapshot.hpp): each OS thread hands out
// stamps from a block it reserved on the global clock, and the copy-on-write
// checkpoint protocol is sound only if no stamp is ever handed out twice —
// across threads, across block boundaries, and across thread lifetimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <latch>
#include <thread>
#include <vector>

#include "confail/sched/snapshot.hpp"

namespace sched = confail::sched;

namespace {

/// Stamps per thread: more than two blocks, ending mid-block.
constexpr std::size_t kDraws = 2 * sched::kSnapshotStampBlock +
                               sched::kSnapshotStampBlock / 2;

void draw(std::vector<std::uint64_t>& out) {
  out.reserve(kDraws);
  for (std::size_t i = 0; i < kDraws; ++i) {
    out.push_back(sched::nextSnapshotVersion());
  }
}

}  // namespace

TEST(SnapshotClock, StampsAreUniqueAcrossThreads) {
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<std::uint64_t>> stamps(kThreads);

  // One thread draws and exits before the others start: its unused
  // remainder must not be handed to a later thread.
  std::thread(draw, std::ref(stamps[0])).join();

  // The other seven draw at the same time.
  std::latch start(kThreads - 1);
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < kThreads; ++t) {
    threads.emplace_back([&start, &out = stamps[t]] {
      start.arrive_and_wait();
      draw(out);
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<std::uint64_t> all;
  all.reserve(kThreads * kDraws);
  for (const std::vector<std::uint64_t>& s : stamps) {
    ASSERT_EQ(s.size(), kDraws);
    all.insert(all.end(), s.begin(), s.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_NE(all.front(), 0u) << "0 is the protocol's no-stamp value";
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "a snapshot stamp was handed out twice";
}
