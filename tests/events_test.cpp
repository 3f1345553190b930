// Unit tests for the event/trace layer: kind tables, JSONL round-trips,
// projections, sinks, naming.
#include <gtest/gtest.h>

#include <sstream>

#include "confail/events/event.hpp"
#include "confail/events/trace.hpp"
#include "confail/ingest/decode.hpp"
#include "confail/obs/trace_export.hpp"

namespace ev = confail::events;
using ev::Event;
using ev::EventKind;
using ev::Trace;

TEST(Event, KindNamesRoundTrip) {
  for (int k = 0; k <= static_cast<int>(EventKind::ClockTick); ++k) {
    auto kind = static_cast<EventKind>(k);
    EventKind back = EventKind::ThreadStart;
    EXPECT_TRUE(ev::tryKindFromName(ev::kindName(kind), back));
    EXPECT_EQ(back, kind);
  }
  EventKind none = EventKind::Read;
  EXPECT_FALSE(ev::tryKindFromName("NoSuchKind", none));
}

TEST(Event, ModelTransitionSubset) {
  EXPECT_TRUE(ev::isModelTransition(EventKind::LockRequest));
  EXPECT_TRUE(ev::isModelTransition(EventKind::LockAcquire));
  EXPECT_TRUE(ev::isModelTransition(EventKind::WaitBegin));
  EXPECT_TRUE(ev::isModelTransition(EventKind::LockRelease));
  EXPECT_TRUE(ev::isModelTransition(EventKind::Notified));
  EXPECT_FALSE(ev::isModelTransition(EventKind::NotifyCall));
  EXPECT_FALSE(ev::isModelTransition(EventKind::Read));
  EXPECT_FALSE(ev::isModelTransition(EventKind::ClockTick));
}

TEST(Trace, AssignsMonotonicSequence) {
  Trace t;
  for (int i = 0; i < 5; ++i) {
    Event e;
    e.kind = EventKind::Read;
    EXPECT_EQ(t.record(e), static_cast<std::uint64_t>(i));
  }
  auto all = t.events();
  ASSERT_EQ(all.size(), 5u);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].seq, i);
}

TEST(Trace, SinksSeeEveryEventInOrder) {
  struct Counter : ev::EventSink {
    std::vector<std::uint64_t> seqs;
    void onEvent(const Event& e) override { seqs.push_back(e.seq); }
  } sink;
  Trace t;
  t.addSink(&sink);
  for (int i = 0; i < 4; ++i) {
    Event e;
    e.kind = EventKind::Write;
    t.record(e);
  }
  EXPECT_EQ(sink.seqs, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(Trace, NamesFallBackToGenerated) {
  Trace t;
  t.nameThread(2, "worker");
  EXPECT_EQ(t.threadName(2), "worker");
  EXPECT_EQ(t.threadName(5), "thread-5");
  EXPECT_EQ(t.monitorName(0), "monitor-0");
  EXPECT_EQ(t.varName(1), "var-1");
  EXPECT_EQ(t.methodName(9), "method-9");

  // Names may contain spaces; a later name replaces an earlier one; the
  // reverse lookups return the lowest id registered under a name.
  t.nameMonitor(2, "old name");
  t.nameMonitor(2, "shared buffer");
  t.nameMonitor(7, "shared buffer");
  t.nameMethod(4, "buf.put");
  t.nameMethod(1, "buf.put");
  EXPECT_EQ(t.monitorName(2), "shared buffer");
  EXPECT_EQ(t.findMethod("buf.put"), 1u);
  EXPECT_EQ(t.findMonitor("shared buffer"), 2u);
  EXPECT_EQ(t.findMonitor("old name"), ev::kNoMonitor);
  EXPECT_EQ(t.findMethod("absent"), ev::kNoMethod);
  EXPECT_EQ(t.findMonitor("absent"), ev::kNoMonitor);
}

TEST(Trace, FarIdsAreNamedAndFound) {
  // Ids off the wire can be anything: the last id before the sentinel
  // wraps a naive resize(id + 1), and one past the dense limit would size
  // a vector to a million names.
  Trace t;
  for (const std::uint32_t id : {0xffffffffu, (1u << 20) + 5}) {
    const std::string n = std::to_string(id);
    t.nameThread(id, "thread " + n);
    t.nameMonitor(id, "monitor " + n);
    t.nameVar(id, "var " + n);
    t.nameMethod(id, "method " + n);
    EXPECT_EQ(t.threadName(id), "thread " + n);
    EXPECT_EQ(t.monitorName(id), "monitor " + n);
    EXPECT_EQ(t.varName(id), "var " + n);
    EXPECT_EQ(t.methodName(id), "method " + n);
    EXPECT_EQ(t.findMonitor("monitor " + n), id);
    EXPECT_EQ(t.findMethod("method " + n), id);
  }
  EXPECT_EQ(t.threadName(7), "thread-7");
  EXPECT_EQ(t.methodName((1u << 20) + 4), "method-1048580");
}

TEST(Trace, Projections) {
  Trace t;
  auto push = [&t](ev::ThreadId tid, ev::MonitorId mon) {
    Event e;
    e.thread = tid;
    e.monitor = mon;
    e.kind = EventKind::LockAcquire;
    t.record(e);
  };
  push(0, 10);
  push(1, 10);
  push(0, 11);
  EXPECT_EQ(t.threadProjection(0).size(), 2u);
  EXPECT_EQ(t.threadProjection(1).size(), 1u);
  EXPECT_EQ(t.monitorProjection(10).size(), 2u);
  EXPECT_EQ(t.monitorProjection(11).size(), 1u);
  EXPECT_EQ(t.monitorProjection(99).size(), 0u);
}

TEST(Trace, MoveConstructorCarriesEventsNamesAndSeq) {
  Trace t;
  t.nameThread(0, "mover");
  Event e;
  e.thread = 0;
  e.kind = EventKind::Read;
  t.record(e);
  const std::vector<Event> before = t.events();

  Trace moved(std::move(t));
  EXPECT_EQ(moved.events(), before);
  EXPECT_EQ(moved.threadName(0), "mover");
  // Sequence numbering continues where the source left off.
  Event f;
  f.thread = 0;
  f.kind = EventKind::Write;
  EXPECT_EQ(moved.record(f), 1u);
}

TEST(Trace, ClearKeepsNames) {
  Trace t;
  t.nameThread(0, "keeper");
  Event e;
  e.kind = EventKind::Read;
  t.record(e);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.threadName(0), "keeper");
  // Sequence restarts.
  EXPECT_EQ(t.record(e), 0u);
}

TEST(Trace, RenderMentionsNames) {
  Trace t;
  t.nameThread(0, "alpha");
  t.nameMonitor(1, "mon");
  Event e;
  e.thread = 0;
  e.monitor = 1;
  e.kind = EventKind::LockRequest;
  t.record(e);
  std::string out;
  t.render([&out](const std::string& line) { out += line + "\n"; });
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("mon"), std::string::npos);
  EXPECT_NE(out.find("LockRequest"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fuzzed serialization round-trip: random events through obs::toJsonl and
// ingest::loadJsonlTrace.  The events take the shapes the runtime records:
// flag only on GuardEval (the one kind JSONL carries it for), aux an id,
// count or tick below 2^32, and a method boundary inside its own method.
// ---------------------------------------------------------------------------

#include "confail/support/rng.hpp"

class TraceFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceFuzz, SerializationRoundTripsRandomTraces) {
  confail::Xoshiro256 rng(GetParam());
  Trace t;
  t.nameThread(0, "fuzz-thread");
  t.nameMonitor(1, "fuzz monitor with spaces");
  const int kKinds = static_cast<int>(EventKind::ClockTick) + 1;
  for (int i = 0; i < 300; ++i) {
    Event e;
    e.thread = static_cast<ev::ThreadId>(rng.below(6));
    e.kind = static_cast<EventKind>(rng.below(static_cast<std::uint64_t>(kKinds)));
    e.monitor = rng.chance(0.5) ? static_cast<ev::MonitorId>(rng.below(4))
                                : ev::kNoMonitor;
    e.aux = rng.below(std::uint64_t{1} << 32);
    e.method = rng.chance(0.5) ? static_cast<ev::MethodId>(rng.below(8))
                               : ev::kNoMethod;
    e.flag = e.kind == EventKind::GuardEval && rng.chance(0.5);
    if (e.kind == EventKind::MethodEnter || e.kind == EventKind::MethodExit) {
      e.aux = rng.below(8);
      e.method = static_cast<ev::MethodId>(e.aux);  // the method entered
    }
    t.record(e);
  }
  const std::string jsonl = confail::obs::toJsonl(t);
  std::istringstream in(jsonl);
  Trace u;
  const auto st = confail::ingest::loadJsonlTrace(in, u);
  EXPECT_EQ(st.malformed, 0u);
  EXPECT_EQ(st.truncated, 0u);
  EXPECT_EQ(u.events(), t.events());
  EXPECT_EQ(u.threadName(0), "fuzz-thread");
  EXPECT_EQ(u.monitorName(1), "fuzz monitor with spaces");
  // Double round-trip is a fixpoint.
  EXPECT_EQ(confail::obs::toJsonl(u), jsonl);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFuzz,
                         testing::Values(1ull, 2ull, 3ull, 5ull, 8ull, 13ull),
                         [](const testing::TestParamInfo<std::uint64_t>& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });
