// Flat cores ≡ map-based cores.  HbCore and LocksetCore keep their state in
// IdTables and sorted small vectors; the map-based originals survive as the
// test-only oracles of reference_cores.hpp.  Seeded random streams, shaped
// to hit the awkward cases (many readers before a write, reentrant
// acquires, releases without an acquire, waits, spawns of far child ids,
// stray monitor and variable ids), must give identical findings and, for
// HbCore, identical eviction counts under every history cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "confail/detect/hb_detector.hpp"
#include "confail/detect/lockset.hpp"
#include "confail/detect/vector_clock.hpp"
#include "confail/support/rng.hpp"
#include "reference_cores.hpp"

namespace {

using confail::Xoshiro256;
using confail::detect::Finding;
using confail::events::Event;
using confail::events::EventKind;

constexpr std::size_t kEvents = 12'000;

std::vector<Event> randomStream(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  // Threads that act: six dense ids and two far ones (sparse in IdTable).
  const std::vector<std::uint32_t> threads = {0, 1, 2, 3, 4, 5, 1500, 3000};
  // Spawned children also include ids nobody else uses, one of them past
  // the IdTable's dense limit.
  const std::vector<std::uint32_t> children = {
      1, 2, 3, 4, 5, 6, 7, 1500, 3000, 9000, (1u << 20) + 5};
  const std::vector<std::uint32_t> monitors = {
      0, 1, 2, 3, 4, 5, confail::events::kNoMonitor, (1u << 20) + 9, 2000};
  std::vector<std::uint64_t> vars;
  for (std::uint64_t v = 0; v < 24; ++v) vars.push_back(v);
  vars.push_back(0xffffffffull);      // kNoVar as a variable
  vars.push_back((1ull << 20) + 1);   // past the dense limit
  vars.push_back((1ull << 32) + 3);   // truncates to var 3
  vars.push_back(5000);

  std::vector<Event> out;
  std::uint64_t seq = 0;
  auto add = [&](EventKind k, std::uint32_t t, std::uint32_t m,
                 std::uint64_t aux) {
    Event e;
    e.seq = seq++;
    e.kind = k;
    e.thread = t;
    e.monitor = m;
    e.aux = aux;
    out.push_back(e);
  };
  auto pick = [&rng](const auto& v) { return v[rng.pickIndex(v)]; };

  while (out.size() < kEvents) {
    const std::uint32_t t = pick(threads);
    const std::uint64_t r = rng.below(100);
    if (r < 4) {
      // Many readers, then one write.
      const std::uint64_t v = pick(vars);
      const std::uint64_t readers = 2 + rng.below(7);
      for (std::uint64_t i = 0; i < readers; ++i) {
        add(EventKind::Read, pick(threads), confail::events::kNoMonitor, v);
      }
      add(EventKind::Write, pick(threads), confail::events::kNoMonitor, v);
    } else if (r < 34) {
      add(EventKind::Read, t, confail::events::kNoMonitor, pick(vars));
    } else if (r < 52) {
      add(EventKind::Write, t, confail::events::kNoMonitor, pick(vars));
    } else if (r < 66) {
      const std::uint32_t m = pick(monitors);
      add(EventKind::LockAcquire, t, m, 0);
      if (rng.chance(0.2)) add(EventKind::LockAcquire, t, m, 0);  // reentrant
    } else if (r < 80) {
      // Often a release of a monitor the thread never acquired.
      add(EventKind::LockRelease, t, pick(monitors), 0);
    } else if (r < 85) {
      add(EventKind::WaitBegin, t, pick(monitors), 0);
    } else if (r < 90) {
      add(EventKind::Notified, t, pick(monitors), 0);
    } else if (r < 93) {
      add(EventKind::ThreadSpawn, t, confail::events::kNoMonitor,
          pick(children));
    } else if (r < 96) {
      add(EventKind::NotifyCall, t, pick(monitors), rng.below(3));
    } else {
      add(EventKind::LockRequest, t, pick(monitors), 0);
    }
  }
  return out;
}

void expectSameFindings(const std::vector<Finding>& got,
                        const std::vector<Finding>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_EQ(got[i].message, want[i].message);
    EXPECT_EQ(got[i].thread, want[i].thread);
    EXPECT_EQ(got[i].thread2, want[i].thread2);
    EXPECT_EQ(got[i].monitor, want[i].monitor);
    EXPECT_EQ(got[i].var, want[i].var);
    EXPECT_EQ(got[i].seq, want[i].seq);
  }
}

TEST(FlatCores, HbMatchesMapOracleAtEveryHistoryCap) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<Event> stream = randomStream(seed);
    for (std::size_t cap : {0u, 1u, 3u, 8u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " cap " +
                   std::to_string(cap));
      confail::detect::HbCore::Options opts;
      opts.maxVarHistory = cap;
      confail::detect::HbCore flat(opts);
      confail::detect::reference::MapHbCore oracle(cap);
      std::vector<Finding> got, want;
      for (const Event& e : stream) {
        flat.feed(e, got);
        oracle.feed(e, want);
      }
      expectSameFindings(got, want);
      EXPECT_EQ(flat.evictions(), oracle.evictions());
      if (cap == 0) {
        EXPECT_EQ(flat.evictions(), 0u);
        EXPECT_FALSE(got.empty());  // the stream is racy enough to matter
      } else {
        EXPECT_GT(flat.evictions(), 0u);
      }
    }
  }
}

TEST(FlatCores, LocksetMatchesMapOracle) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Event> stream = randomStream(seed);
    confail::detect::LocksetCore flat;
    confail::detect::reference::MapLocksetCore oracle;
    std::vector<Finding> got, want;
    for (const Event& e : stream) {
      flat.feed(e, got);
      oracle.feed(e, want);
    }
    expectSameFindings(got, want);
    EXPECT_FALSE(got.empty());
  }
}

// VectorClock against a map: dense ids, ids past the growth slack (kept in
// the side table until a join grows the vector over them), ids past the
// dense limit and the kNoThread sentinel.
TEST(FlatCores, VectorClockMatchesMapOracle) {
  Xoshiro256 rng(7);
  const std::vector<std::uint32_t> ids = {
      0, 1, 2, 5, 900, 1500, 2400, 3000, 9000, (1u << 20) + 5,
      0xfffffffeu, confail::events::kNoThread};
  constexpr std::size_t kClocks = 4;
  std::vector<confail::detect::VectorClock> clocks(kClocks);
  std::vector<std::map<std::uint32_t, std::uint64_t>> oracle(kClocks);
  for (int step = 0; step < 20'000; ++step) {
    const std::size_t a = rng.below(kClocks);
    if (rng.chance(0.5)) {
      const std::uint32_t id = ids[rng.pickIndex(ids)];
      clocks[a].bump(id);
      ++oracle[a][id];
    } else {
      const std::size_t b = rng.below(kClocks);
      clocks[a].join(clocks[b]);
      for (const auto& [id, time] : oracle[b]) {
        oracle[a][id] = std::max(oracle[a][id], time);
      }
    }
    for (const std::uint32_t id : ids) {
      const auto it = oracle[a].find(id);
      ASSERT_EQ(clocks[a].of(id), it == oracle[a].end() ? 0 : it->second)
          << "step " << step << " id " << id;
    }
  }
}

}  // namespace
