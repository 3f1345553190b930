// Unit tests for the detector battery, run against real component
// executions with seeded faults: each detector must flag its target fault
// and stay quiet on the correct implementation.
#include <gtest/gtest.h>

#include "confail/components/bounded_buffer.hpp"
#include "confail/components/producer_consumer.hpp"
#include "confail/components/readers_writers.hpp"
#include "confail/detect/hb_detector.hpp"
#include "confail/detect/lock_graph.hpp"
#include "confail/detect/lockset.hpp"
#include "confail/detect/release_discipline.hpp"
#include "confail/detect/starvation.hpp"
#include "confail/detect/unnecessary_sync.hpp"
#include "confail/detect/wait_notify.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/monitor/shared_var.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace detect = confail::detect;
namespace ev = confail::events;
namespace sched = confail::sched;
using confail::components::ProducerConsumer;
using confail::monitor::Monitor;
using confail::monitor::Runtime;
using confail::monitor::SharedVar;
using confail::monitor::Synchronized;
using detect::Finding;
using detect::FindingKind;

namespace {

struct Harness {
  ev::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler sched{strategy};
  Runtime rt{trace, sched, 1};

  sched::RunResult run() { return sched.run(); }

  bool has(const std::vector<Finding>& fs, FindingKind k) const {
    for (const auto& f : fs) {
      if (f.kind == k) return true;
    }
    return false;
  }
};

}  // namespace

TEST(Lockset, FlagsUnsynchronizedSharedWrite) {
  Harness h;
  SharedVar<int> x(h.rt, "x", 0);
  for (int t = 0; t < 2; ++t) {
    h.rt.spawn("t" + std::to_string(t), [&] { x.set(x.get() + 1); });
  }
  ASSERT_TRUE(h.run().ok());
  detect::LocksetCore d;
  auto fs = detect::analyzeWithCore(d, h.trace);
  ASSERT_TRUE(h.has(fs, FindingKind::DataRace));
  EXPECT_EQ(fs[0].var, x.id());
}

TEST(Lockset, QuietWhenConsistentlyLocked) {
  Harness h;
  Monitor m(h.rt, "m");
  SharedVar<int> x(h.rt, "x", 0);
  for (int t = 0; t < 3; ++t) {
    h.rt.spawn("t" + std::to_string(t), [&] {
      for (int i = 0; i < 5; ++i) {
        Synchronized sync(m);
        x.set(x.get() + 1);
      }
    });
  }
  ASSERT_TRUE(h.run().ok());
  detect::LocksetCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(Lockset, QuietForSingleThreadUnlocked) {
  // Exclusive state: one thread, no locks — not a race.
  Harness h;
  SharedVar<int> x(h.rt, "x", 0);
  h.rt.spawn("only", [&] {
    for (int i = 0; i < 10; ++i) x.set(x.get() + 1);
  });
  ASSERT_TRUE(h.run().ok());
  detect::LocksetCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(Lockset, ReadSharingWithoutWritesIsNotARace) {
  Harness h;
  SharedVar<int> x(h.rt, "x", 7);
  h.rt.spawn("writer-first", [&] { x.set(8); });
  for (int t = 0; t < 3; ++t) {
    h.rt.spawn("r" + std::to_string(t), [&] { (void)x.get(); });
  }
  ASSERT_TRUE(h.run().ok());
  // Writer runs first (round-robin, spawn order), then read-only sharing.
  detect::LocksetCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(Lockset, FlagsProducerConsumerSkipSyncMutant) {
  Harness h;
  ProducerConsumer::Faults f;
  f.skipSync = true;
  ProducerConsumer pc(h.rt, f);
  h.rt.spawn("p", [&] { pc.send("ab"); });
  h.rt.spawn("c", [&] {
    pc.receive();
    pc.receive();
  });
  ASSERT_TRUE(h.run().ok());
  detect::LocksetCore d;
  EXPECT_TRUE(h.has(detect::analyzeWithCore(d, h.trace),
                    FindingKind::DataRace));
}

TEST(Lockset, QuietOnCorrectProducerConsumer) {
  Harness h;
  ProducerConsumer pc(h.rt);
  h.rt.spawn("p", [&] { pc.send("ab"); });
  h.rt.spawn("c", [&] {
    pc.receive();
    pc.receive();
  });
  ASSERT_TRUE(h.run().ok());
  detect::LocksetCore lock;
  detect::HbCore hb;
  detect::WaitNotifyCore wn;
  detect::ReleaseDisciplineCore rd;
  EXPECT_TRUE(detect::analyzeWithCore(lock, h.trace).empty());
  EXPECT_TRUE(detect::analyzeWithCore(hb, h.trace).empty());
  EXPECT_TRUE(detect::analyzeWithCore(wn, h.trace).empty());
  EXPECT_TRUE(detect::analyzeWithCore(rd, h.trace).empty());
}

TEST(HappensBefore, FlagsTrulyUnorderedAccesses) {
  Harness h;
  SharedVar<int> x(h.rt, "x", 0);
  for (int t = 0; t < 2; ++t) {
    h.rt.spawn("t" + std::to_string(t), [&] { x.set(1); });
  }
  ASSERT_TRUE(h.run().ok());
  detect::HbCore d;
  EXPECT_TRUE(h.has(detect::analyzeWithCore(d, h.trace),
                    FindingKind::DataRace));
}

TEST(HappensBefore, MonitorOrderingSuppressesFalsePositives) {
  Harness h;
  Monitor m(h.rt, "m");
  SharedVar<int> x(h.rt, "x", 0);
  for (int t = 0; t < 2; ++t) {
    h.rt.spawn("t" + std::to_string(t), [&] {
      Synchronized sync(m);
      x.set(x.get() + 1);
    });
  }
  ASSERT_TRUE(h.run().ok());
  detect::HbCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(HappensBefore, SpawnEdgeOrdersParentAndChild) {
  Harness h;
  // Captured by reference, not shared: the scheduler keeps the thread
  // bodies past the Runtime, and a SharedVar must not outlive its Runtime.
  SharedVar<int> x(h.rt, "x", 0);
  h.rt.spawn("parent", [&h, &x] {
    x.set(1);  // before spawning the child: ordered by the spawn edge
    h.rt.spawn("child", [&x] { x.set(2); });
  });
  ASSERT_TRUE(h.run().ok());
  detect::HbCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(HappensBefore, WaitNotifyCreatesOrdering) {
  Harness h;
  Monitor m(h.rt, "m");
  SharedVar<int> x(h.rt, "x", 0);
  bool ready = false;
  h.rt.spawn("consumer", [&] {
    Synchronized sync(m);
    while (!ready) m.wait();
    x.set(x.get() + 1);  // ordered after the producer's write via monitor
  });
  h.rt.spawn("producer", [&] {
    Synchronized sync(m);
    x.set(42);
    ready = true;
    m.notifyAll();
  });
  ASSERT_TRUE(h.run().ok());
  detect::HbCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(LockGraph, FlagsInconsistentAcquisitionOrder) {
  Harness h;
  Monitor m1(h.rt, "m1"), m2(h.rt, "m2");
  // Serialized execution (no deadlock manifests) but inverted order:
  // the hazard is latent, which is exactly what the lock graph catches.
  bool abDone = false;
  h.rt.spawn("ab", [&] {
    Synchronized a(m1);
    Synchronized b(m2);
    abDone = true;
  });
  h.rt.spawn("ba", [&] {
    while (!abDone) h.rt.schedulePoint();
    Synchronized b(m2);
    Synchronized a(m1);
  });
  ASSERT_TRUE(h.run().ok());  // completes — the hazard is latent
  detect::LockOrderCore d;
  auto fs = detect::analyzeWithCore(d, h.trace);
  ASSERT_TRUE(h.has(fs, FindingKind::DeadlockCycle));
  EXPECT_NE(fs[0].message.find("m1"), std::string::npos);
  EXPECT_NE(fs[0].message.find("m2"), std::string::npos);
}

TEST(LockGraph, QuietOnConsistentNesting) {
  Harness h;
  Monitor m1(h.rt, "m1"), m2(h.rt, "m2");
  for (int t = 0; t < 2; ++t) {
    h.rt.spawn("t" + std::to_string(t), [&] {
      Synchronized a(m1);
      Synchronized b(m2);
    });
  }
  ASSERT_TRUE(h.run().ok());
  detect::LockOrderCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(WaitNotify, FlagsWaitingForever) {
  Harness h;
  Monitor m(h.rt, "m");
  h.rt.spawn("hang", [&] {
    Synchronized sync(m);
    m.wait();
  });
  auto r = h.run();
  EXPECT_EQ(r.outcome, sched::Outcome::Deadlock);
  detect::WaitNotifyCore d;
  auto fs = detect::analyzeWithCore(d, h.trace);
  EXPECT_TRUE(h.has(fs, FindingKind::WaitingForever));
}

TEST(WaitNotify, FlagsLostNotify) {
  Harness h;
  Monitor m(h.rt, "m");
  h.rt.spawn("notify-first", [&] {
    Synchronized sync(m);
    m.notifyOne();  // nobody waiting: lost
  });
  h.rt.spawn("wait-later", [&] {
    m.lock();
    m.wait();
    m.unlock();
  });
  EXPECT_EQ(h.run().outcome, sched::Outcome::Deadlock);
  detect::WaitNotifyCore d;
  auto fs = detect::analyzeWithCore(d, h.trace);
  EXPECT_TRUE(h.has(fs, FindingKind::LostNotify));
  EXPECT_TRUE(h.has(fs, FindingKind::WaitingForever));
}

TEST(WaitNotify, FlagsNotifySingleInsufficient) {
  Harness h;
  Monitor m(h.rt, "m");
  bool go = false;
  for (int i = 0; i < 3; ++i) {
    h.rt.spawn("w" + std::to_string(i), [&] {
      Synchronized sync(m);
      while (!go) m.wait();
    });
  }
  h.rt.spawn("single", [&] {
    for (int k = 0; k < 10; ++k) h.rt.schedulePoint();
    Synchronized sync(m);
    go = true;
    m.notifyOne();
  });
  EXPECT_EQ(h.run().outcome, sched::Outcome::Deadlock);
  detect::WaitNotifyCore d;
  EXPECT_TRUE(h.has(detect::analyzeWithCore(d, h.trace),
                    FindingKind::NotifySingleInsufficient));
}

TEST(WaitNotify, FlagsIfInsteadOfWhileViaGuardDiscipline) {
  // The if-mutant wakes and proceeds without re-evaluating its guard.
  Harness h;
  ProducerConsumer::Faults f;
  f.ifInsteadOfWhile = true;
  ProducerConsumer pc(h.rt, f);
  h.rt.spawn("c", [&] { pc.receive(); });
  h.rt.spawn("p", [&] {
    for (int k = 0; k < 4; ++k) h.rt.schedulePoint();
    pc.send("x");
  });
  ASSERT_TRUE(h.run().ok());
  detect::WaitNotifyCore d;
  EXPECT_TRUE(h.has(detect::analyzeWithCore(d, h.trace),
                    FindingKind::GuardNotRechecked));
}

TEST(WaitNotify, WhileLoopSatisfiesGuardDiscipline) {
  Harness h;
  ProducerConsumer pc(h.rt);
  h.rt.spawn("c", [&] { pc.receive(); });
  h.rt.spawn("p", [&] {
    for (int k = 0; k < 4; ++k) h.rt.schedulePoint();
    pc.send("x");
  });
  ASSERT_TRUE(h.run().ok());
  detect::WaitNotifyCore d;
  EXPECT_FALSE(h.has(detect::analyzeWithCore(d, h.trace),
                     FindingKind::GuardNotRechecked));
}

TEST(Starvation, FlagsStarvedRequestUnderLifoGrant) {
  // Table 1, FF-T2 second mode: "one or more threads repeatedly acquire the
  // lock being requested by this thread".  Two aggressors hand the monitor
  // to each other via notify/wait; under a LIFO (maximally unfair) grant
  // policy the entry queue always holds a fresher aggressor than the
  // victim, whose request is never served.
  Harness h;
  Monitor::Options mopts;
  mopts.grantPolicy = confail::monitor::SelectPolicy::Lifo;
  Monitor m(h.rt, "hot", mopts);
  auto aggressor = [&] {
    m.lock();
    // Hold the lock across several yields so the victim (and the other
    // aggressor) queue on the entry list before the ping-pong starts.
    for (int k = 0; k < 6; ++k) h.rt.schedulePoint();
    for (int i = 0; i < 120; ++i) {
      m.notifyOne();
      m.wait();
    }
    m.unlock();
  };
  h.rt.spawn("aggressor-0", aggressor);
  h.rt.spawn("victim", [&] { Synchronized sync(m); });
  h.rt.spawn("aggressor-1", aggressor);
  // The final wait of one aggressor is never notified, so the run ends in
  // a deadlock — irrelevant here; the starvation already happened.
  h.run();
  detect::StarvationCore d(/*grantThreshold=*/50);
  EXPECT_TRUE(h.has(detect::analyzeWithCore(d, h.trace),
                    FindingKind::Starvation));
}

TEST(Starvation, QuietUnderFifoGrant) {
  Harness h;
  Monitor m(h.rt, "fair");
  for (int t = 0; t < 3; ++t) {
    h.rt.spawn("t" + std::to_string(t), [&] {
      for (int i = 0; i < 60; ++i) {
        Synchronized sync(m);
      }
    });
  }
  ASSERT_TRUE(h.run().ok());
  detect::StarvationCore d(50);
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(Starvation, FlagsLockHeldForever) {
  Harness h;
  Monitor m(h.rt, "stuck");
  h.rt.spawn("holder", [&] {
    m.lock();
    for (;;) h.rt.schedulePoint();  // never releases
  });
  h.rt.spawn("requester", [&] {
    Synchronized sync(m);
  });
  sched::VirtualScheduler::Options o;
  auto r = h.run();
  EXPECT_EQ(r.outcome, sched::Outcome::StepLimit);
  detect::StarvationCore d;
  EXPECT_TRUE(h.has(detect::analyzeWithCore(d, h.trace),
                    FindingKind::LockHeldForever));
}

TEST(UnnecessarySync, FlagsSingleThreadedLockedComponent) {
  Harness h;
  Monitor m(h.rt, "lonely");
  SharedVar<int> x(h.rt, "x", 0);
  h.rt.spawn("only", [&] {
    for (int i = 0; i < 5; ++i) {
      Synchronized sync(m);
      x.set(x.get() + 1);
    }
  });
  ASSERT_TRUE(h.run().ok());
  detect::UnnecessarySyncCore d;
  auto fs = detect::analyzeWithCore(d, h.trace);
  ASSERT_TRUE(h.has(fs, FindingKind::UnnecessarySync));
  EXPECT_EQ(fs[0].monitor, m.id());
}

TEST(UnnecessarySync, QuietWhenContended) {
  Harness h;
  Monitor m(h.rt, "shared");
  SharedVar<int> x(h.rt, "x", 0);
  for (int t = 0; t < 2; ++t) {
    h.rt.spawn("t" + std::to_string(t), [&] {
      Synchronized sync(m);
      x.set(x.get() + 1);
    });
  }
  ASSERT_TRUE(h.run().ok());
  detect::UnnecessarySyncCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(UnnecessarySync, QuietWhenWaitNotifyUsed) {
  Harness h;
  Monitor m(h.rt, "cv");
  h.rt.spawn("self-notify", [&] {
    Synchronized sync(m);
    m.notifyAll();  // even single-threaded, notify implies protocol use
  });
  ASSERT_TRUE(h.run().ok());
  detect::UnnecessarySyncCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(ReleaseDiscipline, FlagsEarlyReleaseSendMutant) {
  Harness h;
  ProducerConsumer::Faults f;
  f.earlyReleaseSend = true;
  ProducerConsumer pc(h.rt, f);
  h.rt.spawn("p", [&] { pc.send("x"); });
  h.rt.spawn("c", [&] { pc.receive(); });
  ASSERT_TRUE(h.run().ok());
  detect::ReleaseDisciplineCore d;
  EXPECT_TRUE(h.has(detect::analyzeWithCore(d, h.trace),
                    FindingKind::EarlyRelease));
}

TEST(ReleaseDiscipline, QuietOnDisciplinedComponent) {
  Harness h;
  ProducerConsumer pc(h.rt);
  h.rt.spawn("p", [&] { pc.send("x"); });
  h.rt.spawn("c", [&] { pc.receive(); });
  ASSERT_TRUE(h.run().ok());
  detect::ReleaseDisciplineCore d;
  EXPECT_TRUE(detect::analyzeWithCore(d, h.trace).empty());
}

TEST(Findings, DescribeMentionsNames) {
  Harness h;
  SharedVar<int> x(h.rt, "hot-var", 0);
  for (int t = 0; t < 2; ++t) {
    h.rt.spawn("racer-" + std::to_string(t), [&] { x.set(1); });
  }
  ASSERT_TRUE(h.run().ok());
  detect::LocksetCore d;
  auto fs = detect::analyzeWithCore(d, h.trace);
  ASSERT_FALSE(fs.empty());
  std::string desc = fs[0].describe(h.trace);
  EXPECT_NE(desc.find("data-race"), std::string::npos);
  EXPECT_NE(desc.find("hot-var"), std::string::npos);
  EXPECT_NE(desc.find("racer-"), std::string::npos);
}
