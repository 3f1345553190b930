// Second wave of detector tests: multi-lock cycles, nested-lock lockset
// behaviour, happens-before transitivity across monitors, wait/notify
// corner cases, starvation-threshold boundaries, and classifier evidence
// strings.
#include <gtest/gtest.h>

#include <string>

#include "confail/detect/hb_detector.hpp"
#include "confail/detect/lock_graph.hpp"
#include "confail/detect/lockset.hpp"
#include "confail/detect/starvation.hpp"
#include "confail/detect/suite.hpp"
#include "confail/detect/wait_notify.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/monitor/shared_var.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace detect = confail::detect;
namespace ev = confail::events;
namespace sched = confail::sched;
using confail::monitor::Monitor;
using confail::monitor::Runtime;
using confail::monitor::SharedVar;
using confail::monitor::Synchronized;
using detect::FindingKind;

namespace {
struct Harness {
  ev::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler sched{strategy};
  Runtime rt{trace, sched, 1};

  bool has(const std::vector<detect::Finding>& fs, FindingKind k) const {
    for (const auto& f : fs) {
      if (f.kind == k) return true;
    }
    return false;
  }
};
}  // namespace

TEST(LockGraphExtra, ThreeLockCycleDetected) {
  Harness h;
  Monitor a(h.rt, "A"), b(h.rt, "B"), c(h.rt, "C");
  // Serialize the three threads so the hazard stays latent.
  int stage = 0;
  auto waitFor = [&](int want) {
    while (stage != want) h.rt.schedulePoint();
  };
  h.rt.spawn("ab", [&] {
    Synchronized l1(a);
    Synchronized l2(b);
    stage = 1;
  });
  h.rt.spawn("bc", [&] {
    waitFor(1);
    Synchronized l1(b);
    Synchronized l2(c);
    stage = 2;
  });
  h.rt.spawn("ca", [&] {
    waitFor(2);
    Synchronized l1(c);
    Synchronized l2(a);
  });
  ASSERT_TRUE(h.sched.run().ok());
  detect::LockOrderCore d;
  auto fs = detect::analyzeWithCore(d, h.trace);
  ASSERT_TRUE(h.has(fs, FindingKind::DeadlockCycle));
  // The cycle message names all three monitors.
  const std::string msg = fs[0].message;
  EXPECT_NE(msg.find("A"), std::string::npos);
  EXPECT_NE(msg.find("B"), std::string::npos);
  EXPECT_NE(msg.find("C"), std::string::npos);
}

TEST(LockGraphExtra, ReentrantAcquisitionIsNotAnEdge) {
  Harness h;
  Monitor a(h.rt, "A");
  h.rt.spawn("t", [&] {
    Synchronized outer(a);
    Synchronized inner(a);  // reentrant: no self-edge, no cycle
  });
  ASSERT_TRUE(h.sched.run().ok());
  detect::LockOrderCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(LockGraphExtra, WaitBreaksTheHeldChain) {
  // Thread holds A, then waits on A while acquiring nothing: no A->A or
  // stale edges from the released period.
  Harness h;
  Monitor a(h.rt, "A"), b(h.rt, "B");
  bool go = false;
  h.rt.spawn("waiter", [&] {
    Synchronized l1(a);
    while (!go) a.wait();
    Synchronized l2(b);  // edge A->B recorded once, after the wake
  });
  h.rt.spawn("notifier", [&] {
    for (int k = 0; k < 4; ++k) h.rt.schedulePoint();
    Synchronized l1(a);
    go = true;
    a.notifyAll();
  });
  ASSERT_TRUE(h.sched.run().ok());
  detect::LockOrderCore d;
  // Single order, no cycle.
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(LocksetExtra, TwoLocksProtectingDifferentVarsAreIndependent) {
  Harness h;
  Monitor a(h.rt, "A"), b(h.rt, "B");
  SharedVar<int> x(h.rt, "x", 0), y(h.rt, "y", 0);
  for (int t = 0; t < 2; ++t) {
    h.rt.spawn("t" + std::to_string(t), [&] {
      {
        Synchronized l(a);
        x.set(x.get() + 1);
      }
      {
        Synchronized l(b);
        y.set(y.get() + 1);
      }
    });
  }
  ASSERT_TRUE(h.sched.run().ok());
  detect::LocksetCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(LocksetExtra, MixedLockingIsARace) {
  // Thread 0 uses lock A, thread 1 uses lock B for the same variable:
  // candidate set empties -> race, even though every access is locked.
  Harness h;
  Monitor a(h.rt, "A"), b(h.rt, "B");
  SharedVar<int> x(h.rt, "x", 0);
  h.rt.spawn("viaA", [&] {
    Synchronized l(a);
    x.set(x.get() + 1);
  });
  h.rt.spawn("viaB", [&] {
    Synchronized l(b);
    x.set(x.get() + 1);
  });
  ASSERT_TRUE(h.sched.run().ok());
  detect::LocksetCore d;
  EXPECT_TRUE(h.has(detect::analyzeWithCore(d, h.trace),
                    FindingKind::DataRace));
}

TEST(LocksetExtra, NestedLocksKeepInnerCandidate) {
  // Accesses always under B (sometimes with A as well): B survives in the
  // candidate set -> no race.
  Harness h;
  Monitor a(h.rt, "A"), b(h.rt, "B");
  SharedVar<int> x(h.rt, "x", 0);
  h.rt.spawn("nested", [&] {
    Synchronized l1(a);
    Synchronized l2(b);
    x.set(1);
  });
  h.rt.spawn("plain", [&] {
    Synchronized l2(b);
    x.set(2);
  });
  ASSERT_TRUE(h.sched.run().ok());
  detect::LocksetCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(HappensBeforeExtra, TransitiveOrderingAcrossTwoMonitors) {
  // t0 writes x under A; t1 bridges A -> B; t2 reads x under B.
  // The HB chain is indirect but complete: no race.
  Harness h;
  Monitor a(h.rt, "A"), b(h.rt, "B");
  SharedVar<int> x(h.rt, "x", 0);
  int stage = 0;
  h.rt.spawn("writer", [&] {
    Synchronized l(a);
    x.set(42);
    stage = 1;
  });
  h.rt.spawn("bridge", [&] {
    while (stage != 1) h.rt.schedulePoint();
    Synchronized l1(a);
    Synchronized l2(b);
    stage = 2;
  });
  h.rt.spawn("reader", [&] {
    while (stage != 2) h.rt.schedulePoint();
    Synchronized l(b);
    EXPECT_EQ(x.get(), 42);
  });
  ASSERT_TRUE(h.sched.run().ok());
  detect::HbCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(HappensBeforeExtra, LocksetFalsePositiveHbTrueNegative) {
  // The classic divergence: ownership handoff through a monitor-ordered
  // flag.  Lockset flags it (no single lock guards x); happens-before
  // correctly stays quiet.
  Harness h;
  Monitor m(h.rt, "m");
  SharedVar<int> x(h.rt, "x", 0);
  bool transferred = false;
  h.rt.spawn("first-owner", [&] {
    x.set(10);  // unlocked, but before the handoff
    Synchronized l(m);
    transferred = true;
    m.notifyAll();
  });
  h.rt.spawn("second-owner", [&] {
    {
      Synchronized l(m);
      while (!transferred) {
        h.rt.emit(ev::EventKind::GuardEval, ev::kNoMonitor, 0, true);
        m.wait();
      }
      h.rt.emit(ev::EventKind::GuardEval, ev::kNoMonitor, 0, false);
    }
    x.set(20);  // unlocked, but after the handoff completed
  });
  ASSERT_TRUE(h.sched.run().ok());
  detect::LocksetCore lockset;
  detect::HbCore hb;
  EXPECT_TRUE(h.has(detect::analyzeWithCore(lockset, h.trace),
                    FindingKind::DataRace))
      << "Eraser-style lockset is expected to false-positive here";
  EXPECT_TRUE(detect::analyzeWithCore(hb, h.trace).empty())
      << "happens-before must recognize the handoff";
}

TEST(WaitNotifyExtra, NotifyAllWithNoWaitersThenHangingWaitIsLostNotify) {
  Harness h;
  Monitor m(h.rt, "m");
  h.rt.spawn("broadcast-first", [&] {
    Synchronized l(m);
    m.notifyAll();  // empty wait set
  });
  h.rt.spawn("late-waiter", [&] {
    for (int k = 0; k < 4; ++k) h.rt.schedulePoint();
    Synchronized l(m);
    m.wait();
  });
  EXPECT_EQ(h.sched.run().outcome, sched::Outcome::Deadlock);
  detect::WaitNotifyCore d;
  auto fs = detect::analyzeWithCore(d, h.trace);
  EXPECT_TRUE(h.has(fs, FindingKind::LostNotify));
}

TEST(WaitNotifyExtra, SatisfiedWaitersProduceNoFindings) {
  Harness h;
  Monitor m(h.rt, "m");
  int woken = 0;
  bool go = false;
  for (int i = 0; i < 3; ++i) {
    h.rt.spawn("w" + std::to_string(i), [&] {
      Synchronized l(m);
      // Disciplined guard loop: re-evaluation is announced via GuardEval
      // (components do this automatically; raw monitor users must too, or
      // the guard-discipline heuristic rightly flags them).
      for (;;) {
        h.rt.emit(ev::EventKind::GuardEval, ev::kNoMonitor, 0, !go);
        if (go) break;
        m.wait();
      }
      ++woken;
    });
  }
  h.rt.spawn("n", [&] {
    for (int k = 0; k < 8; ++k) h.rt.schedulePoint();
    Synchronized l(m);
    go = true;
    m.notifyAll();
  });
  ASSERT_TRUE(h.sched.run().ok());
  EXPECT_EQ(woken, 3);
  detect::WaitNotifyCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(StarvationExtra, ThresholdBoundary) {
  // Exactly threshold-1 grants while pending: silent; threshold: reported.
  auto runWith = [](std::uint64_t grants, std::uint64_t threshold) {
    ev::Trace trace;
    // Build the trace by hand: requester pends while another thread takes
    // the lock `grants` times, then the requester is served.
    auto push = [&trace](ev::ThreadId t, ev::EventKind k, ev::MonitorId m) {
      ev::Event e;
      e.thread = t;
      e.kind = k;
      e.monitor = m;
      trace.record(e);
    };
    push(0, ev::EventKind::LockRequest, 0);
    for (std::uint64_t i = 0; i < grants; ++i) {
      push(1, ev::EventKind::LockRequest, 0);
      push(1, ev::EventKind::LockAcquire, 0);
      push(1, ev::EventKind::LockRelease, 0);
    }
    push(0, ev::EventKind::LockAcquire, 0);
    push(0, ev::EventKind::LockRelease, 0);
    detect::StarvationCore d(threshold);
    return detect::analyzeWithCore(d, trace);
  };
  EXPECT_TRUE(runWith(4, 5).empty());
  EXPECT_FALSE(runWith(5, 5).empty());
}

TEST(SuiteExtra, FindingsComeInBatteryOrder) {
  // A trace with both a race and a hung waiter: lockset's finding must
  // precede wait-notify's in the suite output (stable battery order).
  Harness h;
  Monitor m(h.rt, "m");
  SharedVar<int> x(h.rt, "x", 0);
  for (int t = 0; t < 2; ++t) {
    h.rt.spawn("racer" + std::to_string(t), [&] { x.set(x.get() + 1); });
  }
  h.rt.spawn("hanger", [&] {
    Synchronized l(m);
    m.wait();
  });
  EXPECT_EQ(h.sched.run().outcome, sched::Outcome::Deadlock);
  detect::DetectorSuite suite;
  auto fs = suite.analyze(h.trace);
  std::size_t racePos = fs.size(), waitPos = fs.size();
  for (std::size_t i = 0; i < fs.size(); ++i) {
    if (fs[i].kind == FindingKind::DataRace && racePos == fs.size()) racePos = i;
    if (fs[i].kind == FindingKind::WaitingForever && waitPos == fs.size()) waitPos = i;
  }
  ASSERT_LT(racePos, fs.size());
  ASSERT_LT(waitPos, fs.size());
  EXPECT_LT(racePos, waitPos);
}
