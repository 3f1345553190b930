// Canonical exploration scenarios: small Java-style monitor programs with
// known Table 1 behaviour.  Every verb that explores, injects into or
// captures a scenario reaches them through the registry
// (scenario_registry.hpp), which names each one; the parallel-explorer
// tests and the benches call them directly, so everything measures exactly
// the same trees.
//
//   * figure2           — the paper's Figure-2 producer/consumer shape with
//                         a correct notifyAll buffer: capacity 1, 2
//                         producers x 2 items, 2 consumers x 2 items.
//                         Deadlock-free.
//   * ffT5Notify        — the same shape with notify() instead of
//                         notifyAll() (FF-T5): many schedules wake a
//                         same-side waiter and deadlock.
//   * ffT5Small         — ffT5Notify with 1 item per thread: the same
//                         deadlock in a tree small enough to exhaust.
//   * lockOrder         — two monitors taken in opposite orders (FF-T2).
//   * disjointCounters  — two threads on unrelated shared variables; every
//                         interleaving commutes (the sleep-set showcase).
//   * genSelfWait, genLostSignal, genUnguardedWrite
//                       — reproducers the fuzzer shrank out of failing
//                         seeds (see the block comment above them).
//
// Every scenario has the one signature
// `void(sched::VirtualScheduler&, const Instruments&)`; pass `{}` for a
// plain run.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "confail/components/bounded_buffer.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/monitor/shared_var.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace confail::components::scenarios {

/// Optional observation hooks for a scenario run; an empty Instruments is a
/// plain run.  `trace`, when set, is cleared and then receives the run's
/// events (instead of a scenario-private trace that dies with the run) —
/// feed it to the exporters or the offline detectors afterwards.
/// `metrics`, when set, is attached to the scenario's Runtime before any
/// monitor is built, so per-monitor counters register.
/// Exploration note: a shared external trace serializes appends from
/// parallel workers and interleaves their runs — pass a trace only to a
/// single capture run; `metrics` alone is safe under parallel exploration.
///
/// `decorate`, when set, is called once per scenario instantiation with the
/// freshly built Runtime, before any threads are spawned; whatever it
/// returns is owned by the scenario state and destroyed with it (after the
/// components, before the Runtime).  This is how confail::inject attaches a
/// per-run Injector without the components layer depending on it.
///
/// inject::ExploreConfig fills this in for explorations and captures; build
/// one by hand only to run a scenario on a scheduler of your own.
struct Instruments {
  events::Trace* trace = nullptr;
  obs::Registry* metrics = nullptr;
  std::function<std::shared_ptr<void>(monitor::Runtime&)> decorate;
};

/// The part of a scenario's state every scenario shares.  A scenario
/// derives its State from this, adds its components as members, and keeps
/// the State alive through shared_ptr captures in the spawned closures,
/// which the scheduler owns until it is destroyed.  Members die in reverse
/// order: the derived components first, then `decoration`, then `rt`.
///
/// Constructing it declares the scheduler snapshot-safe, so the explorer
/// may checkpoint and restore instead of replaying prefixes.  A derived
/// State must therefore keep all its mutable state in snapshot sources
/// (Monitor, SharedVar, a SnapshotCell) or in the spawned closures' own
/// stack frames; a SharedVar over a non-copyable type vetoes the
/// declaration by itself.
struct ScenarioState {
  events::Trace ownTrace;
  monitor::Runtime rt;
  std::shared_ptr<void> decoration;  ///< outlives components, not rt

  ScenarioState(sched::VirtualScheduler& s, const Instruments& i)
      : rt(prepare(s, i, ownTrace), s, 1, i.metrics),
        decoration(i.decorate ? i.decorate(rt) : nullptr) {}

 private:
  /// Runs before the Runtime exists: clears the caller's trace (or picks
  /// the private one) and declares snapshot safety.
  static events::Trace& prepare(sched::VirtualScheduler& s,
                                const Instruments& i, events::Trace& own) {
    s.declareSnapshotSafe();
    if (i.trace == nullptr) return own;
    i.trace->clear();
    return *i.trace;
  }
};

namespace detail {

inline void boundedBufferScenario(sched::VirtualScheduler& s,
                                  const Instruments& ins,
                                  const BoundedBuffer<int>::Faults& faults,
                                  int itemsPerThread) {
  struct State : ScenarioState {
    BoundedBuffer<int> buf;
    State(sched::VirtualScheduler& sc, const Instruments& i,
          const BoundedBuffer<int>::Faults& f)
        : ScenarioState(sc, i), buf(rt, "buf", 1, f) {}
  };
  auto st = std::make_shared<State>(s, ins, faults);
  for (int p = 0; p < 2; ++p) {
    st->rt.spawn("p" + std::to_string(p), [st, itemsPerThread] {
      for (int i = 0; i < itemsPerThread; ++i) st->buf.put(i);
    });
  }
  for (int c = 0; c < 2; ++c) {
    st->rt.spawn("c" + std::to_string(c), [st, itemsPerThread] {
      for (int i = 0; i < itemsPerThread; ++i) (void)st->buf.take();
    });
  }
}

}  // namespace detail

/// Figure-2 producer/consumer with a correct (notifyAll) buffer.
inline void figure2(sched::VirtualScheduler& s, const Instruments& ins) {
  detail::boundedBufferScenario(s, ins, {}, 2);
}

/// FF-T5 mutant: notify() where notifyAll() is required.
inline void ffT5Notify(sched::VirtualScheduler& s, const Instruments& ins) {
  detail::boundedBufferScenario(s, ins, {.notifyOneOnly = true}, 2);
}

/// Single-item FF-T5 mutant: 2 producers x 1 item, 2 consumers x 1 item,
/// capacity 1, notify().  The same missed-notification deadlock as
/// ffT5Notify, but its schedule tree is small enough to exhaust unbounded —
/// the workhorse of the parallel-determinism tests.
inline void ffT5Small(sched::VirtualScheduler& s, const Instruments& ins) {
  detail::boundedBufferScenario(s, ins, {.notifyOneOnly = true},
                                /*itemsPerThread=*/1);
}

/// Classic lock-order deadlock (the paper's FF-T2 "locks held by several
/// threads in a circular chain"): t0 takes A then B, t1 takes B then A.
inline void lockOrder(sched::VirtualScheduler& s, const Instruments& ins) {
  struct State : ScenarioState {
    monitor::Monitor a;
    monitor::Monitor b;
    State(sched::VirtualScheduler& sc, const Instruments& i)
        : ScenarioState(sc, i), a(rt, "A"), b(rt, "B") {}
  };
  auto st = std::make_shared<State>(s, ins);
  st->rt.spawn("t0", [st] {
    monitor::Synchronized ga(st->a);
    monitor::Synchronized gb(st->b);
  });
  st->rt.spawn("t1", [st] {
    monitor::Synchronized gb(st->b);
    monitor::Synchronized ga(st->a);
  });
}

/// Two threads on fully disjoint state: adjacent steps of different
/// threads always commute.
inline void disjointCounters(sched::VirtualScheduler& s,
                             const Instruments& ins) {
  struct State : ScenarioState {
    monitor::SharedVar<int> a;
    monitor::SharedVar<int> b;
    State(sched::VirtualScheduler& sc, const Instruments& i)
        : ScenarioState(sc, i), a(rt, "a", 0), b(rt, "b", 0) {}
  };
  auto st = std::make_shared<State>(s, ins);
  st->rt.spawn("ta", [st] {
    for (int i = 0; i < 2; ++i) st->a.set(st->a.get() + 1);
  });
  st->rt.spawn("tb", [st] {
    for (int i = 0; i < 2; ++i) st->b.set(st->b.get() + 1);
  });
}

// ---------------------------------------------------------------------------
// Fuzzer-found reproducers.  These are hand-translations of gen IR programs
// that the `confail fuzz` differential harness shrank out of failing seeds
// during development; they are pinned here (components cannot depend on gen)
// so the exact shapes stay in the regression surface forever.  The IR each
// one encodes is quoted in its comment together with the seed that produced
// it — `confail fuzz --seeds N..N+1 ...` regenerates the original program.
// ---------------------------------------------------------------------------

/// gen IR:  t0: lock m0; wait m0; unlock m0        (1 thread, 1 monitor)
/// The minimal deadlocking monitor program: a self-wait nobody can ever
/// notify.  This is what the shrinker reduces *every* deadlocking seed to
/// under the drop-deadlocks sabotage oracle (first tripping seed 0 of
/// `confail fuzz --seeds 0..40 --sabotage drop-deadlocks`), and doubles as
/// the known-minimal fixture of the shrinker unit tests.
inline void genSelfWait(sched::VirtualScheduler& s, const Instruments& ins) {
  struct State : ScenarioState {
    monitor::Monitor m0;
    State(sched::VirtualScheduler& sc, const Instruments& i)
        : ScenarioState(sc, i), m0(rt, "m0") {}
  };
  auto st = std::make_shared<State>(s, ins);
  st->rt.spawn("t0", [st] {
    monitor::Synchronized g(st->m0);
    st->m0.wait();
  });
}

/// gen IR:  t0: lock m0; wait m0; unlock m0
///          t1: lock m0; notify m0; unlock m0      (2 threads, 1 monitor)
/// Lost notification: schedules where t1's notify lands before t0 waits
/// leave t0 blocked forever (the paper's FF-T5 neighborhood without the
/// buffer plumbing).  Distilled from seed 54 of the default fuzz tier, a
/// 2-thread/21-op program over one monitor whose bounded tree completes on
/// exactly 1 of its 16 schedules — the one where the waiter reaches its
/// wait before the lone notifyAll fires — and deadlocks on the other 15.
inline void genLostSignal(sched::VirtualScheduler& s, const Instruments& ins) {
  struct State : ScenarioState {
    monitor::Monitor m0;
    State(sched::VirtualScheduler& sc, const Instruments& i)
        : ScenarioState(sc, i), m0(rt, "m0") {}
  };
  auto st = std::make_shared<State>(s, ins);
  st->rt.spawn("t0", [st] {
    monitor::Synchronized g(st->m0);
    st->m0.wait();
  });
  st->rt.spawn("t1", [st] {
    monitor::Synchronized g(st->m0);
    st->m0.notifyOne();
  });
}

/// gen IR:  t0: lock m0; write v0; unlock m0
///          t1: write v0                           (2 threads, 1 mon, 1 var)
/// Inconsistent guarding: t1 touches v0 without ever holding m0, so every
/// interleaving carries a data race (empty lock-set intersection + no
/// happens-before edge) while all runs still complete — the FF-T1 shape the
/// lockset/hb detectors exist for.  Distilled from seed 7 of the default
/// fuzz tier (2 threads, 18 ops: t1 writes v0 with an empty lock stack
/// while t0 accesses it under m0); the clean-tier fuzz oracle proves
/// generated *guarded* programs never trip these detectors.
inline void genUnguardedWrite(sched::VirtualScheduler& s,
                              const Instruments& ins) {
  struct State : ScenarioState {
    monitor::Monitor m0;
    monitor::SharedVar<int> v0;
    State(sched::VirtualScheduler& sc, const Instruments& i)
        : ScenarioState(sc, i), m0(rt, "m0"), v0(rt, "v0", 0) {}
  };
  auto st = std::make_shared<State>(s, ins);
  st->rt.spawn("t0", [st] {
    monitor::Synchronized g(st->m0);
    st->v0.set(st->v0.peek() + 1);
  });
  st->rt.spawn("t1", [st] { st->v0.set(st->v0.peek() + 1); });
}

}  // namespace confail::components::scenarios
