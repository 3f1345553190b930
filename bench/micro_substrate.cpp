// Ablation B: micro-costs of the substrate (google-benchmark).
//
// Quantifies what each layer of instrumentation costs:
//   * monitor lock/unlock and wait/notify round-trips, real vs virtual mode
//   * trace event recording
//   * schedule-point overhead of the virtual scheduler (context handoff)
//   * lockset / vector-clock per-access analysis cost
//   * Petri-net firing and reachability throughput
#include <benchmark/benchmark.h>

#include <memory>

#include "confail/components/producer_consumer.hpp"
#include "confail/detect/hb_detector.hpp"
#include "confail/detect/lockset.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/monitor/shared_var.hpp"
#include "confail/petri/reachability.hpp"
#include "confail/petri/thread_lock_net.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace ev = confail::events;
namespace sched = confail::sched;
using confail::monitor::Monitor;
using confail::monitor::Runtime;
using confail::monitor::Synchronized;

// ---------------------------------------------------------------------------

static void BM_TraceRecord(benchmark::State& state) {
  ev::Trace trace;
  ev::Event e;
  e.kind = ev::EventKind::Read;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace.record(e));
    if (trace.size() > 1u << 20) {
      state.PauseTiming();
      trace.clear();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_TraceRecord);

static void BM_RealMonitorLockUnlock(benchmark::State& state) {
  ev::Trace trace;
  Runtime rt(trace, 1);
  Monitor m(rt, "m");
  for (auto _ : state) {
    Synchronized sync(m);
    benchmark::ClobberMemory();
    if (trace.size() > 1u << 20) {
      state.PauseTiming();
      trace.clear();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_RealMonitorLockUnlock);

static void BM_RealMonitorContended(benchmark::State& state) {
  // Measures an uncontended baseline per iteration with contention supplied
  // by sibling benchmark threads.
  static ev::Trace trace;
  static Runtime rt(trace, 1);
  static Monitor m(rt, "m");
  for (auto _ : state) {
    Synchronized sync(m);
    benchmark::ClobberMemory();
  }
  if (state.thread_index() == 0) trace.clear();
}
BENCHMARK(BM_RealMonitorContended)->Threads(4)->UseRealTime();

static void BM_VirtualSchedulerHandoff(benchmark::State& state) {
  // Cost of one schedule point (two semaphore hops) in the virtual mode,
  // measured by running a fixed-size yield loop per iteration batch.
  const int kYields = 1000;
  for (auto _ : state) {
    sched::RoundRobinStrategy strategy;
    sched::VirtualScheduler::Options so;
    so.maxSteps = 1u << 22;
    sched::VirtualScheduler s(strategy, so);
    s.spawn("spinner", [&s] {
      for (int i = 0; i < kYields; ++i) s.yield();
    });
    auto r = s.run();
    benchmark::DoNotOptimize(r.steps);
  }
  state.SetItemsProcessed(state.iterations() * kYields);
}
BENCHMARK(BM_VirtualSchedulerHandoff);

static void BM_VirtualProducerConsumerMessage(benchmark::State& state) {
  const int kMessages = 200;
  for (auto _ : state) {
    ev::Trace trace;
    sched::RoundRobinStrategy strategy;
    sched::VirtualScheduler::Options so;
    so.maxSteps = 1u << 22;
    sched::VirtualScheduler s(strategy, so);
    Runtime rt(trace, s, 1);
    confail::components::ProducerConsumer pc(rt);
    rt.spawn("p", [&pc] {
      for (int i = 0; i < kMessages; ++i) pc.send("x");
    });
    rt.spawn("c", [&pc] {
      for (int i = 0; i < kMessages; ++i) (void)pc.receive();
    });
    auto r = s.run();
    benchmark::DoNotOptimize(r.steps);
  }
  state.SetItemsProcessed(state.iterations() * kMessages);
}
BENCHMARK(BM_VirtualProducerConsumerMessage);

// ---------------------------------------------------------------------------
// Detector throughput over a synthetic trace of N events.

namespace {
ev::Trace makeAccessTrace(std::size_t events) {
  ev::Trace t;
  for (std::size_t i = 0; i < events; ++i) {
    ev::Event e;
    e.thread = static_cast<ev::ThreadId>(i % 4);
    switch (i % 4) {
      case 0: e.kind = ev::EventKind::LockAcquire; e.monitor = 0; break;
      case 1: e.kind = ev::EventKind::Read; e.aux = i % 16; break;
      case 2: e.kind = ev::EventKind::Write; e.aux = i % 16; break;
      default: e.kind = ev::EventKind::LockRelease; e.monitor = 0; break;
    }
    t.record(e);
  }
  return t;
}
}  // namespace

static void BM_LocksetAnalysis(benchmark::State& state) {
  ev::Trace trace = makeAccessTrace(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    confail::detect::LocksetCore d;
    benchmark::DoNotOptimize(confail::detect::analyzeWithCore(d, trace));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LocksetAnalysis)->Arg(1000)->Arg(10000)->Arg(100000);

static void BM_HappensBeforeAnalysis(benchmark::State& state) {
  ev::Trace trace = makeAccessTrace(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    confail::detect::HbCore d;
    benchmark::DoNotOptimize(confail::detect::analyzeWithCore(d, trace));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HappensBeforeAnalysis)->Arg(1000)->Arg(10000)->Arg(100000);

// ---------------------------------------------------------------------------
// Petri engine.

static void BM_PetriFire(benchmark::State& state) {
  auto tl = confail::petri::buildThreadLockNet(4, confail::petri::NotifyModel::Free);
  confail::petri::Marking m = tl.initial;
  for (auto _ : state) {
    // T1_0, T2_0, T4_0 cycle for thread 0.
    m = tl.net.fire(tl.T1[0][0], m);
    m = tl.net.fire(tl.T2[0][0], m);
    m = tl.net.fire(tl.T4[0][0], m);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_PetriFire);

static void BM_PetriReachability(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  auto tl = confail::petri::buildThreadLockNet(threads, confail::petri::NotifyModel::Free);
  for (auto _ : state) {
    auto r = confail::petri::reachable(tl.net, tl.initial);
    benchmark::DoNotOptimize(r.stateCount());
  }
}
BENCHMARK(BM_PetriReachability)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

BENCHMARK_MAIN();
