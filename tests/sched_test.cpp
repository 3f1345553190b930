// Unit tests for the virtual scheduler: strict alternation, strategies,
// blocking/unblocking, deadlock and step-limit detection, determinism,
// and the exhaustive explorer.
#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "confail/sched/explorer.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace sched = confail::sched;
using confail::events::ThreadId;
using sched::BlockKind;
using sched::Outcome;
using sched::RoundRobinStrategy;
using sched::RandomWalkStrategy;
using sched::PrefixReplayStrategy;
using sched::VirtualScheduler;

TEST(VirtualScheduler, RunsSingleThreadToCompletion) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  int x = 0;
  s.spawn("t0", [&] { x = 42; });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_EQ(x, 42);
}

TEST(VirtualScheduler, StrictAlternationNoOverlap) {
  // With yields between increments, two threads interleave but never
  // overlap: a non-atomic counter stays exact.
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  long counter = 0;  // deliberately not atomic
  auto body = [&] {
    for (int i = 0; i < 1000; ++i) {
      ++counter;
      s.yield();
    }
  };
  s.spawn("a", body);
  s.spawn("b", body);
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_EQ(counter, 2000);
}

TEST(VirtualScheduler, ThreadsSpawnedMidRunExecute) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  bool childRan = false;
  s.spawn("parent", [&] {
    s.spawn("child", [&] { childRan = true; });
  });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_TRUE(childRan);
}

TEST(VirtualScheduler, BlockWithoutUnblockIsDeadlock) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  s.spawn("stuck", [&] { s.block(BlockKind::Custom, 7); });
  auto r = s.run();
  ASSERT_EQ(r.outcome, Outcome::Deadlock);
  ASSERT_EQ(r.blocked.size(), 1u);
  EXPECT_EQ(r.blocked[0].name, "stuck");
  EXPECT_EQ(r.blocked[0].kind, BlockKind::Custom);
  EXPECT_EQ(r.blocked[0].resource, 7u);
}

TEST(VirtualScheduler, UnblockMakesThreadRunnableAgain) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  bool resumed = false;
  ThreadId sleeper = s.spawn("sleeper", [&] {
    s.block(BlockKind::Custom, 0);
    resumed = true;
  });
  s.spawn("waker", [&] {
    s.yield();  // let the sleeper block first (round-robin order)
    s.unblock(sleeper);
  });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_TRUE(resumed);
}

TEST(VirtualScheduler, StepLimitAbortsLivelock) {
  RoundRobinStrategy strat;
  VirtualScheduler::Options opts;
  opts.maxSteps = 500;
  VirtualScheduler s(strat, opts);
  s.spawn("spin", [&] {
    for (;;) s.yield();
  });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::StepLimit);
  EXPECT_EQ(r.steps, 500u);
}

TEST(VirtualScheduler, UncaughtExceptionReported) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  s.spawn("thrower", [] { throw std::runtime_error("boom"); });
  auto r = s.run();
  ASSERT_EQ(r.outcome, Outcome::Exception);
  EXPECT_EQ(r.errorMessage, "boom");
}

TEST(VirtualScheduler, ScheduleIsReplayable) {
  // Run once with a random strategy; replay the recorded schedule and
  // observe the identical interleaving (same output word).
  auto program = [](VirtualScheduler& s, std::string& word) {
    for (char c : {'a', 'b', 'c'}) {
      s.spawn(std::string(1, c), [&s, &word, c] {
        for (int i = 0; i < 3; ++i) {
          word.push_back(c);
          s.yield();
        }
      });
    }
  };

  std::string word1;
  RandomWalkStrategy rws(1234);
  VirtualScheduler s1(rws);
  program(s1, word1);
  auto r1 = s1.run();
  ASSERT_EQ(r1.outcome, Outcome::Completed);

  std::string word2;
  PrefixReplayStrategy replay(r1.schedule);
  VirtualScheduler s2(replay);
  program(s2, word2);
  auto r2 = s2.run();
  ASSERT_EQ(r2.outcome, Outcome::Completed);
  EXPECT_EQ(word1, word2);
  EXPECT_EQ(r1.schedule, r2.schedule);
}

TEST(VirtualScheduler, RandomWalkIsDeterministicPerSeed) {
  auto runWith = [](std::uint64_t seed) {
    RandomWalkStrategy strat(seed);
    VirtualScheduler s(strat);
    std::string word;
    for (char c : {'x', 'y'}) {
      s.spawn(std::string(1, c), [&s, &word, c] {
        for (int i = 0; i < 5; ++i) {
          word.push_back(c);
          s.yield();
        }
      });
    }
    auto r = s.run();
    EXPECT_EQ(r.outcome, Outcome::Completed);
    return word;
  };
  EXPECT_EQ(runWith(7), runWith(7));
  // Not a hard guarantee, but with 10 interleaved steps two seeds agreeing
  // entirely would be a (2^-something) fluke worth noticing.
  EXPECT_NE(runWith(7), runWith(8));
}

TEST(VirtualScheduler, DestructorCleansUpWithoutRun) {
  RoundRobinStrategy strat;
  {
    VirtualScheduler s(strat);
    s.spawn("never-runs", [] {});
    // destructor must reap the parked worker without hanging
  }
  SUCCEED();
}

TEST(Explorer, CoversAllInterleavingsOfTwoThreads) {
  // Two threads, each one yield point: the schedule tree has a handful of
  // interleavings; the explorer must terminate having covered all of them.
  sched::ExhaustiveExplorer::Options opts;
  opts.maxRuns = 1000;
  sched::ExhaustiveExplorer explorer(opts);
  std::vector<std::string> words;
  auto stats = explorer.explore(
      [](VirtualScheduler& s) {
        auto word = std::make_shared<std::string>();
        for (char c : {'a', 'b'}) {
          s.spawn(std::string(1, c), [&s, word, c] {
            word->push_back(c);
            s.yield();
            word->push_back(c);
          });
        }
      },
      nullptr);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_GT(stats.runs, 1u);
  EXPECT_EQ(stats.deadlocks, 0u);
  EXPECT_EQ(stats.exceptions, 0u);
  EXPECT_EQ(stats.completed, stats.runs);
}

TEST(Explorer, FindsTheOneBadInterleaving) {
  // A seeded atomicity bug: thread B crashes only if it runs entirely
  // between A's two halves.  The explorer must find it.
  sched::ExhaustiveExplorer explorer;
  auto stats = explorer.explore([](VirtualScheduler& s) {
    auto stage = std::make_shared<int>(0);
    s.spawn("A", [&s, stage] {
      *stage = 1;
      s.yield();
      *stage = 0;
    });
    s.spawn("B", [&s, stage] {
      if (*stage == 1) throw std::runtime_error("hit the window");
      s.yield();
    });
  });
  EXPECT_GT(stats.exceptions, 0u);
  EXPECT_FALSE(stats.firstFailure.empty());
}

TEST(Explorer, CallbackCanStopEarly) {
  sched::ExhaustiveExplorer explorer;
  std::uint64_t seen = 0;
  auto stats = explorer.explore(
      [](VirtualScheduler& s) {
        for (char c : {'a', 'b', 'c'}) {
          s.spawn(std::string(1, c), [&s] { s.yield(); });
        }
      },
      [&seen](const std::vector<ThreadId>&, const sched::RunResult&) {
        ++seen;
        return seen < 3;
      });
  EXPECT_TRUE(stats.stoppedByCallback);
  EXPECT_EQ(stats.runs, 3u);
}

TEST(Explorer, DeadlockReachableIsFound) {
  // Classic lock-order inversion built directly on scheduler blocking:
  // two "locks" as booleans; threads block if taken.
  sched::ExhaustiveExplorer explorer;
  auto stats = explorer.explore([](VirtualScheduler& s) {
    struct Locks {
      bool l1 = false, l2 = false;
      ThreadId w1 = confail::events::kNoThread, w2 = confail::events::kNoThread;
    };
    auto locks = std::make_shared<Locks>();
    auto take = [&s, locks](bool Locks::*flag, ThreadId Locks::*waiter) {
      if ((*locks).*flag) {
        (*locks).*waiter = s.currentThread();
        s.block(BlockKind::Custom, 0);
      }
      (*locks).*flag = true;
    };
    auto release = [&s, locks](bool Locks::*flag, ThreadId Locks::*waiter) {
      (*locks).*flag = false;
      if ((*locks).*waiter != confail::events::kNoThread) {
        s.unblock((*locks).*waiter);
        (*locks).*waiter = confail::events::kNoThread;
      }
    };
    s.spawn("ab", [&s, take, release] {
      take(&Locks::l1, &Locks::w1);
      s.yield();
      take(&Locks::l2, &Locks::w2);
      release(&Locks::l2, &Locks::w2);
      release(&Locks::l1, &Locks::w1);
    });
    s.spawn("ba", [&s, take, release] {
      take(&Locks::l2, &Locks::w2);
      s.yield();
      take(&Locks::l1, &Locks::w1);
      release(&Locks::l1, &Locks::w1);
      release(&Locks::l2, &Locks::w2);
    });
  });
  EXPECT_GT(stats.deadlocks, 0u);
}

TEST(Strategy, PrefixReplayDivergenceIsAnError) {
  // Demanding a thread that is not runnable must surface as a run error,
  // not an abort.
  PrefixReplayStrategy strat({99});
  VirtualScheduler s(strat);
  s.spawn("only", [] {});
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Exception);
  EXPECT_NE(r.errorMessage.find("diverged"), std::string::npos);
}

TEST(Strategy, RoundRobinCyclesFairly) {
  RoundRobinStrategy strat;
  std::vector<ThreadId> runnable = {0, 1, 2};
  std::vector<ThreadId> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(strat.pick(runnable, static_cast<std::uint64_t>(i)));
  EXPECT_EQ(picks, (std::vector<ThreadId>{0, 1, 2, 0, 1, 2}));
}

TEST(Strategy, PctAlwaysPicksFromRunnable) {
  sched::PctStrategy strat(42, 3, 100);
  for (ThreadId t = 0; t < 4; ++t) strat.onSpawn(t);
  std::vector<ThreadId> runnable = {1, 3};
  for (int i = 0; i < 50; ++i) {
    ThreadId p = strat.pick(runnable, static_cast<std::uint64_t>(i));
    EXPECT_TRUE(p == 1 || p == 3);
  }
}

TEST(VirtualScheduler, JoinWaitsForTarget) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  std::vector<int> order;
  ThreadId worker = s.spawn("worker", [&] {
    for (int i = 0; i < 3; ++i) s.yield();
    order.push_back(1);
  });
  s.spawn("joiner", [&] {
    s.joinThread(worker);
    order.push_back(2);
  });
  auto r = s.run();
  ASSERT_EQ(r.outcome, Outcome::Completed);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(VirtualScheduler, JoinOnFinishedThreadReturnsImmediately) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  bool joined = false;
  ThreadId quick = s.spawn("quick", [] {});
  s.spawn("joiner", [&] {
    for (int i = 0; i < 5; ++i) s.yield();  // let quick finish first
    s.joinThread(quick);
    joined = true;
  });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_TRUE(joined);
}

TEST(VirtualScheduler, SelfJoinRejected) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  bool threw = false;
  s.spawn("narcissist", [&] {
    try {
      s.joinThread(s.currentThread());
    } catch (const confail::UsageError&) {
      threw = true;
    }
  });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_TRUE(threw);
}

TEST(VirtualScheduler, MutualJoinIsAnObservableDeadlock) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  // Two threads joining each other: classic deadlock, observable here.
  ThreadId a = s.spawn("a", [&] {
    s.yield();
    s.joinThread(1);
  });
  s.spawn("b", [&] {
    s.yield();
    s.joinThread(a);
  });
  auto r = s.run();
  ASSERT_EQ(r.outcome, Outcome::Deadlock);
  EXPECT_EQ(r.blocked.size(), 2u);
  EXPECT_EQ(r.blocked[0].kind, BlockKind::Join);
}

TEST(Explorer, BranchDepthBoundLimitsTree) {
  // With branching restricted to the first decision, the explorer's run
  // count equals the size of the first runnable set, not the full tree.
  sched::ExhaustiveExplorer::Options opts;
  opts.maxBranchDepth = 1;
  sched::ExhaustiveExplorer explorer(opts);
  auto stats = explorer.explore([](VirtualScheduler& s) {
    for (char c : {'a', 'b', 'c'}) {
      s.spawn(std::string(1, c), [&s] { s.yield(); });
    }
  });
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.runs, 3u);
}

// ---- the build's backend: fibers where there is a fiber switch -----------

// Every scheduler runs its logical threads on fibers where the build has a
// fiber switch (on the controller's own OS thread), and on OS threads of
// their own elsewhere; no option chooses.
TEST(VirtualScheduler, LogicalThreadsRunOnTheControllerThreadWhereFibersExist) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  std::vector<std::thread::id> ids(3);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    s.spawn("t" + std::to_string(i), [&s, &ids, i] {
      ids[i] = std::this_thread::get_id();
      s.yield();
      EXPECT_EQ(ids[i], std::this_thread::get_id());  // never migrates
    });
  }
  const auto r = s.run();
  ASSERT_EQ(r.outcome, Outcome::Completed);
  const std::thread::id controller = std::this_thread::get_id();
  for (const std::thread::id& id : ids) {
    EXPECT_EQ(id == controller, sched::fibersSupported());
  }
}

namespace {

/// Recurse `depth` frames of about 1 KB each: each frame stays well under
/// a page, so an overflow cannot step over a guard page.
int recurse(int depth) {
  volatile char pad[1024];
  pad[0] = static_cast<char>(depth);
  if (depth == 0) return pad[0];
  return recurse(depth - 1) + pad[0];
}

/// 1/3 in the current rounding mode; volatile operands keep the division
/// at run time.
double third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

}  // namespace

// The switch saves MXCSR and the x87 control word with the registers: a
// rounding mode belongs to the logical thread that set it.
TEST(FiberSwitch, RoundingModeStaysWithItsLogicalThread) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = third();
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  int upwardChecks = 0;
  int nearestChecks = 0;
  s.spawn("upward", [&] {
    std::fesetround(FE_UPWARD);
    for (int i = 0; i < 4; ++i) {
      s.yield();
      if (std::fegetround() == FE_UPWARD && third() > nearest) ++upwardChecks;
    }
  });
  s.spawn("default", [&] {
    for (int i = 0; i < 4; ++i) {
      if (std::fegetround() == FE_TONEAREST && third() == nearest) {
        ++nearestChecks;
      }
      s.yield();
    }
  });
  const auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_EQ(upwardChecks, 4);
  EXPECT_EQ(nearestChecks, 4);
  // The controller got its own mode back at every switch, the last too.
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(third(), nearest);
  std::fesetround(FE_TONEAREST);
}

// An exception thrown after a schedule point unwinds the fiber's frames to
// its handler, and a handler that itself passes a schedule point keeps its
// own exception while another fiber throws and catches in between: each
// fiber has its own caught-exception stack, as a real thread does.
TEST(FiberSwitch, ExceptionsCaughtAcrossSchedulePoints) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  std::vector<std::string> seen(2);
  for (int id = 0; id < 2; ++id) {
    s.spawn("t" + std::to_string(id), [&s, &seen, id] {
      const std::string mine = "thrown by t" + std::to_string(id);
      auto deep = [&] {
        s.yield();
        throw std::runtime_error(mine);
      };
      try {
        deep();
      } catch (const std::runtime_error& e) {
        s.yield();  // the other thread throws and catches meanwhile
        try {
          std::rethrow_exception(std::current_exception());
        } catch (const std::runtime_error& again) {
          seen[id] = std::string(e.what()) + "|" + again.what();
        }
      }
      s.yield();
      if (std::uncaught_exceptions() != 0) seen[id] += "|uncaught";
    });
  }
  const auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed) << r.errorMessage;
  EXPECT_EQ(seen[0], "thrown by t0|thrown by t0");
  EXPECT_EQ(seen[1], "thrown by t1|thrown by t1");
}

// A fiber stack has an inaccessible guard page below it: a logical thread
// that recurses past its 256 KB faults, as it would on an OS thread, rather
// than overwriting the memory beneath its stack.
TEST(FiberSwitch, StackOverflowFaultsOnTheGuardPage) {
  if (!sched::fibersSupported()) GTEST_SKIP() << "no fiber support";
  EXPECT_EXIT(
      {
        RoundRobinStrategy strat;
        VirtualScheduler s(strat);
        s.spawn("deep", [] { (void)recurse(1024); });  // ~1 MB of frames
        (void)s.run();
        std::exit(0);
      },
      ::testing::KilledBySignal(SIGSEGV), "");
}
