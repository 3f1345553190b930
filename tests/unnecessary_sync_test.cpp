// UnnecessarySyncCore at stream scale: a monitor waited on and re-acquired
// hundreds of thousands of times, with guarded accesses between the
// cycles.  The core must stay linear in the stream (ctest gives this test
// 30 s), and its findings must be the battery's.  Its memory must follow
// the ids it sees, not their values.
#include <gtest/gtest.h>

#include <malloc.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "confail/detect/finding.hpp"
#include "confail/detect/suite.hpp"
#include "confail/detect/unnecessary_sync.hpp"
#include "confail/events/trace.hpp"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kMallocStats = false;  // the sanitizer allocator bypasses them
#else
constexpr bool kMallocStats = true;
#endif

/// Bytes the C heap holds for the program: arena plus mmapped chunks.
std::size_t heapBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

using confail::events::Event;
using confail::events::EventKind;
using confail::events::Trace;
namespace detect = confail::detect;

constexpr int kCycles = 200'000;

// Monitors: 0 is the wait/notify queue, 1 is private to the waiter and
// guards only its own data (the one unnecessary monitor), 2 is private to
// the notifier but guards a variable both threads touch.
// Variables: 0 is the queue's slot, 1 the waiter's own, 2 shared.
Trace waitCycleTrace() {
  Trace trace;
  trace.nameThread(0, "waiter");
  trace.nameThread(1, "notifier");
  trace.nameMonitor(0, "queue");
  trace.nameMonitor(1, "mine");
  trace.nameMonitor(2, "theirs");
  trace.nameVar(0, "slot");
  trace.nameVar(1, "own");
  trace.nameVar(2, "both");
  const auto ev = [&trace](std::uint32_t thread, EventKind kind,
                           std::uint32_t monitor, std::uint64_t aux = 0) {
    Event e;
    e.thread = thread;
    e.kind = kind;
    e.monitor = monitor;
    e.aux = aux;
    trace.record(e);
  };
  const std::uint32_t none = confail::events::kNoMonitor;
  ev(0, EventKind::LockRequest, 0);
  ev(0, EventKind::LockAcquire, 0);
  for (int i = 0; i < kCycles; ++i) {
    ev(0, EventKind::Read, none, 0);  // guarded by the queue
    ev(0, EventKind::WaitBegin, 0);
    ev(1, EventKind::LockRequest, 0);
    ev(1, EventKind::LockAcquire, 0);
    ev(1, EventKind::Write, none, 0);
    ev(1, EventKind::NotifyCall, 0, 1);
    ev(1, EventKind::LockRelease, 0);
    ev(1, EventKind::LockAcquire, 2);
    ev(1, EventKind::Write, none, 2);
    ev(1, EventKind::LockRelease, 2);
    ev(0, EventKind::Notified, 0);
    ev(0, EventKind::LockAcquire, 0);  // re-acquire after the wait
    ev(0, EventKind::LockAcquire, 1);  // nested under the queue
    ev(0, EventKind::Write, none, 1);
    ev(0, EventKind::LockRelease, 1);
    ev(0, EventKind::Read, none, 2);  // under the queue only
  }
  ev(0, EventKind::LockRelease, 0);
  return trace;
}

TEST(UnnecessarySync, WaitCyclesStayLinearAndMatchTheBattery) {
  const Trace trace = waitCycleTrace();

  detect::UnnecessarySyncCore core;
  const std::vector<detect::Finding> alone =
      detect::analyzeWithCore(core, trace);
  ASSERT_EQ(alone.size(), 1u);
  EXPECT_EQ(alone[0].kind, detect::FindingKind::UnnecessarySync);
  EXPECT_EQ(alone[0].monitor, 1u);
  EXPECT_EQ(alone[0].thread, 0u);

  std::vector<detect::Finding> battery;
  for (const auto& report : detect::DetectorSuite().analyzeEach(trace)) {
    if (std::string(report.detector) == "unnecessary-sync") {
      battery = report.findings;
    }
  }
  ASSERT_EQ(battery.size(), alone.size());
  for (std::size_t i = 0; i < battery.size(); ++i) {
    EXPECT_EQ(battery[i].monitor, alone[i].monitor);
    EXPECT_EQ(battery[i].thread, alone[i].thread);
    EXPECT_EQ(battery[i].seq, alone[i].seq);
    EXPECT_EQ(battery[i].message, alone[i].message);
  }
}

TEST(UnnecessarySync, StrayHugeIdsCostNodesNotTables) {
  // The highest ids a dense table would still hold: a corrupt stream line
  // can carry them.  Sizing the per-thread, per-monitor and per-variable
  // state to them would take tens of megabytes.
  const std::uint32_t far = (1u << 20) - 1;
  Event acquire;
  acquire.thread = far;
  acquire.kind = EventKind::LockAcquire;
  acquire.monitor = far - 1;
  Event read;
  read.seq = 1;
  read.thread = far;
  read.kind = EventKind::Read;
  read.aux = far;

  detect::UnnecessarySyncCore core;
  std::vector<detect::Finding> out;
  out.reserve(4);
  const std::size_t before = heapBytes();
  core.feed(acquire, out);
  core.feed(read, out);
  if (kMallocStats) {
    EXPECT_LT(heapBytes() - before, std::size_t{64} << 10);
  }

  const Trace names;
  core.finish(detect::TraceNames(names), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].monitor, far - 1);
  EXPECT_EQ(out[0].thread, far);
}

}  // namespace
