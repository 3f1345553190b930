#include "stream_gen.hpp"

#include <algorithm>

#include "confail/obs/trace_export.hpp"
#include "confail/support/rng.hpp"

namespace cfbench {

namespace events = confail::events;
using events::Event;
using events::EventKind;
using events::MethodId;
using events::MonitorId;
using events::ThreadId;
using events::VarId;

namespace {

constexpr std::uint32_t kThreads = 12;
constexpr std::uint32_t kGuards = 16;
constexpr std::uint32_t kChannels = 4;
constexpr std::uint32_t kSharedVars = 1024;
constexpr std::uint32_t kRacyVars = 4;
constexpr std::uint32_t kConsumers = 4;

enum Method : MethodId { kUpdate, kTransfer, kPut, kTake, kAwait, kFlush };

class Builder {
 public:
  Builder(std::uint64_t seed, GeneratedStream& g) : rng_(seed), g_(g) {
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      g_.threads.push_back("worker-" + std::to_string(t));
    }
    for (std::uint32_t m = 0; m < kGuards; ++m) {
      g_.monitors.push_back("guard-" + std::to_string(m));
    }
    for (std::uint32_t c = 0; c < kChannels; ++c) {
      g_.monitors.push_back("chan-" + std::to_string(c));
    }
    g_.monitors.push_back("latch");
    for (std::uint32_t v = 0; v < kSharedVars; ++v) {
      g_.vars.push_back("cell-" + std::to_string(v));
    }
    for (std::uint32_t c = 0; c < kChannels; ++c) {
      g_.vars.push_back("chan-" + std::to_string(c) + ".count");
    }
    g_.vars.push_back("scratch");
    g_.methods = {"Store.update", "Store.transfer", "Chan.put",
                  "Chan.take",    "Latch.await",    "Store.flush"};

    // Roles: the early-release thread and the hung waiter never consume
    // from a channel, so their lock bookkeeping stays exact.
    std::vector<ThreadId> order(kThreads);
    for (ThreadId t = 0; t < kThreads; ++t) order[t] = t;
    confail::shuffle(order, rng_);
    g_.earlyThread = order[0];
    g_.hungThread = order[1];
    consumer_.assign(kThreads, false);
    for (std::uint32_t i = 0; i < kConsumers; ++i) consumer_[order[2 + i]] = true;
    g_.hungMonitor = kGuards + kChannels;  // "latch"
    g_.earlyVar = kSharedVars + kChannels;  // "scratch"
    while (g_.racyVars.size() < kRacyVars) {
      const VarId v = static_cast<VarId>(rng_.below(kSharedVars));
      if (std::find(g_.racyVars.begin(), g_.racyVars.end(), v) ==
          g_.racyVars.end()) {
        g_.racyVars.push_back(v);
      }
    }
    started_.assign(kThreads, false);
    blocked_.assign(kThreads, false);
    waiter_.assign(kChannels, -1);
  }

  void run(std::size_t target) {
    // Planted defects fire once the stream crosses these fractions.
    struct Plant {
      double at;
      int what;  // 0 inversion, 1 early release, 2..5 racy write, 6 hung wait
    };
    std::vector<Plant> plants = {{0.50, 0}, {0.60, 1}, {0.55, 2}, {0.65, 3},
                                 {0.75, 4}, {0.85, 5}, {0.90, 6}};
    std::sort(plants.begin(), plants.end(),
              [](const Plant& a, const Plant& b) { return a.at < b.at; });
    std::size_t next = 0;
    while (g_.events.size() < target) {
      if (next < plants.size() &&
          static_cast<double>(g_.events.size()) >=
              plants[next].at * static_cast<double>(target)) {
        plant(plants[next].what);
        ++next;
        continue;
      }
      step(pickThread());
    }
    for (; next < plants.size(); ++next) plant(plants[next].what);
    // Wake every channel waiter, then end every thread but the hung one.
    for (std::uint32_t c = 0; c < kChannels; ++c) {
      while (waiter_[c] >= 0) {
        ThreadId p = pickThread();
        while (static_cast<int>(p) == waiter_[c]) p = pickThread();
        put(p, c);
      }
    }
    for (ThreadId t = 0; t < kThreads; ++t) {
      if (t != g_.hungThread && started_[t]) emit(t, EventKind::ThreadEnd);
    }
  }

 private:
  ThreadId pickThread() {
    for (;;) {
      const ThreadId t = static_cast<ThreadId>(rng_.below(kThreads));
      if (!blocked_[t] && !(hung_ && t == g_.hungThread)) return t;
    }
  }

  void emit(ThreadId t, EventKind k, MonitorId m = events::kNoMonitor,
            std::uint64_t aux = 0, MethodId method = events::kNoMethod,
            bool flag = false) {
    if (!started_[t]) {
      started_[t] = true;
      emit(t, EventKind::ThreadStart);
    }
    Event e;
    e.seq = g_.events.size();
    e.thread = t;
    e.kind = k;
    e.monitor = m;
    e.aux = aux;
    e.method = method;
    e.flag = flag;
    g_.events.push_back(e);
  }

  VarId varOf(MonitorId guard) {
    return guard + kGuards * static_cast<VarId>(rng_.below(kSharedVars / kGuards));
  }

  void access(ThreadId t, VarId v, MethodId m) {
    emit(t, rng_.chance(0.5) ? EventKind::Read : EventKind::Write,
         events::kNoMonitor, v, m);
  }

  void lock(ThreadId t, MonitorId g, MethodId m) {
    emit(t, EventKind::LockRequest, g, 0, m);
    emit(t, EventKind::LockAcquire, g, 0, m);
  }

  void step(ThreadId t) {
    const std::uint64_t r = rng_.below(100);
    if (r < 55) {
      const MonitorId g = static_cast<MonitorId>(rng_.below(kGuards));
      emit(t, EventKind::MethodEnter, events::kNoMonitor, kUpdate, kUpdate);
      lock(t, g, kUpdate);
      const std::uint64_t n = 1 + rng_.below(4);
      for (std::uint64_t i = 0; i < n; ++i) access(t, varOf(g), kUpdate);
      emit(t, EventKind::LockRelease, g, 0, kUpdate);
      emit(t, EventKind::MethodExit, events::kNoMonitor, kUpdate, kUpdate);
    } else if (r < 75) {
      MonitorId a = static_cast<MonitorId>(rng_.below(kGuards));
      MonitorId b = static_cast<MonitorId>(rng_.below(kGuards - 1));
      if (b >= a) ++b;
      if (a > b) std::swap(a, b);  // ascending: the clean lock order
      emit(t, EventKind::MethodEnter, events::kNoMonitor, kTransfer, kTransfer);
      lock(t, a, kTransfer);
      lock(t, b, kTransfer);
      access(t, varOf(a), kTransfer);
      access(t, varOf(b), kTransfer);
      emit(t, EventKind::LockRelease, b, 0, kTransfer);
      emit(t, EventKind::LockRelease, a, 0, kTransfer);
      emit(t, EventKind::MethodExit, events::kNoMonitor, kTransfer, kTransfer);
    } else {
      const std::uint32_t c = static_cast<std::uint32_t>(rng_.below(kChannels));
      if (waiter_[c] >= 0 && waiter_[c] != static_cast<int>(t)) {
        put(t, c);
      } else if (waiter_[c] < 0 && consumer_[t]) {
        take(t, c, rng_.chance(0.5));
      } else {
        put(t, c);
      }
    }
  }

  /// Producer side; notifies and wakes the channel's waiter if it has one.
  void put(ThreadId t, std::uint32_t c) {
    const MonitorId m = kGuards + c;
    const VarId count = kSharedVars + c;
    emit(t, EventKind::MethodEnter, events::kNoMonitor, kPut, kPut);
    lock(t, m, kPut);
    emit(t, EventKind::Read, events::kNoMonitor, count, kPut);
    emit(t, EventKind::GuardEval, events::kNoMonitor, kPut, kPut, false);
    emit(t, EventKind::Write, events::kNoMonitor, count, kPut);
    const int w = waiter_[c];
    if (w >= 0) {
      emit(t, EventKind::NotifyCall, m, 1, kPut);
      emit(static_cast<ThreadId>(w), EventKind::Notified, m, 0, kTake);
    }
    emit(t, EventKind::LockRelease, m, 0, kPut);
    emit(t, EventKind::MethodExit, events::kNoMonitor, kPut, kPut);
    if (w >= 0) {
      const ThreadId wt = static_cast<ThreadId>(w);
      emit(wt, EventKind::LockAcquire, m, 0, kTake);
      emit(wt, EventKind::Read, events::kNoMonitor, count, kTake);
      emit(wt, EventKind::GuardEval, events::kNoMonitor, kTake, kTake, false);
      emit(wt, EventKind::Write, events::kNoMonitor, count, kTake);
      emit(wt, EventKind::LockRelease, m, 0, kTake);
      emit(wt, EventKind::MethodExit, events::kNoMonitor, kTake, kTake);
      waiter_[c] = -1;
      blocked_[wt] = false;
    }
  }

  /// Consumer side; with `wait` the channel is empty and the consumer
  /// blocks until the next put.
  void take(ThreadId t, std::uint32_t c, bool wait) {
    const MonitorId m = kGuards + c;
    const VarId count = kSharedVars + c;
    emit(t, EventKind::MethodEnter, events::kNoMonitor, kTake, kTake);
    lock(t, m, kTake);
    emit(t, EventKind::Read, events::kNoMonitor, count, kTake);
    emit(t, EventKind::GuardEval, events::kNoMonitor, kTake, kTake, wait);
    if (wait) {
      emit(t, EventKind::WaitBegin, m, 0, kTake);
      waiter_[c] = static_cast<int>(t);
      blocked_[t] = true;
      return;
    }
    emit(t, EventKind::Write, events::kNoMonitor, count, kTake);
    emit(t, EventKind::LockRelease, m, 0, kTake);
    emit(t, EventKind::MethodExit, events::kNoMonitor, kTake, kTake);
  }

  void plant(int what) {
    if (what == 0) {
      // Lock-order inversion: descending nested acquisition.
      const ThreadId t = pickThread();
      const MonitorId hi = kGuards - 1 - static_cast<MonitorId>(rng_.below(kGuards / 2));
      const MonitorId lo = static_cast<MonitorId>(rng_.below(kGuards / 2));
      emit(t, EventKind::MethodEnter, events::kNoMonitor, kTransfer, kTransfer);
      lock(t, hi, kTransfer);
      lock(t, lo, kTransfer);
      access(t, varOf(lo), kTransfer);
      emit(t, EventKind::LockRelease, lo, 0, kTransfer);
      emit(t, EventKind::LockRelease, hi, 0, kTransfer);
      emit(t, EventKind::MethodExit, events::kNoMonitor, kTransfer, kTransfer);
    } else if (what == 1) {
      // Early release: the method writes after dropping its only lock.
      const ThreadId t = g_.earlyThread;
      const MonitorId g = static_cast<MonitorId>(rng_.below(kGuards));
      emit(t, EventKind::MethodEnter, events::kNoMonitor, kFlush, kFlush);
      lock(t, g, kFlush);
      emit(t, EventKind::Write, events::kNoMonitor, varOf(g), kFlush);
      emit(t, EventKind::LockRelease, g, 0, kFlush);
      emit(t, EventKind::Write, events::kNoMonitor, g_.earlyVar, kFlush);
      emit(t, EventKind::MethodExit, events::kNoMonitor, kFlush, kFlush);
    } else if (what <= 5) {
      // Unguarded write right after another thread's guarded write, so
      // neither a common lock nor a release/acquire orders the two.
      const VarId v = g_.racyVars[static_cast<std::size_t>(what - 2)];
      const MonitorId g = v % kGuards;
      const ThreadId y = pickThread();
      ThreadId x = pickThread();
      while (x == y) x = pickThread();
      emit(y, EventKind::MethodEnter, events::kNoMonitor, kUpdate, kUpdate);
      lock(y, g, kUpdate);
      emit(y, EventKind::Write, events::kNoMonitor, v, kUpdate);
      emit(y, EventKind::LockRelease, g, 0, kUpdate);
      emit(y, EventKind::MethodExit, events::kNoMonitor, kUpdate, kUpdate);
      emit(x, EventKind::Write, events::kNoMonitor, v);
    } else {
      // A wait nobody ever notifies: the waiter's last event.
      const ThreadId t = g_.hungThread;
      const MonitorId m = g_.hungMonitor;
      emit(t, EventKind::MethodEnter, events::kNoMonitor, kAwait, kAwait);
      lock(t, m, kAwait);
      emit(t, EventKind::GuardEval, events::kNoMonitor, kAwait, kAwait, true);
      emit(t, EventKind::WaitBegin, m, 0, kAwait);
      hung_ = true;
    }
  }

  confail::Xoshiro256 rng_;
  GeneratedStream& g_;
  std::vector<bool> consumer_, started_, blocked_;
  std::vector<int> waiter_;
  bool hung_ = false;
};

void appendField(std::string& out, const char* key, std::uint64_t v) {
  out += ", \"";
  out += key;
  out += "\": ";
  out += std::to_string(v);
}

void appendField(std::string& out, const char* key, const std::string& v) {
  out += ", \"";
  out += key;
  out += "\": \"";
  out += v;  // generated names are plain ASCII identifiers
  out += '"';
}

}  // namespace

void generateStream(std::uint64_t seed, std::size_t targetEvents,
                    GeneratedStream& out) {
  std::vector<Event> events = std::move(out.events);
  events.clear();
  events.reserve(targetEvents + 64);
  out = GeneratedStream{};
  out.events = std::move(events);
  Builder(seed, out).run(targetEvents);
}

GeneratedStream generateStream(std::uint64_t seed, std::size_t targetEvents) {
  GeneratedStream g;
  generateStream(seed, targetEvents, g);
  return g;
}

void appendJsonlLine(const GeneratedStream& g, const Event& e,
                     std::string& out) {
  out += "{ \"seq\": ";
  out += std::to_string(e.seq);
  out += ", \"kind\": \"";
  out += events::kindName(e.kind);
  out += '"';
  if (e.thread != events::kNoThread) {
    appendField(out, "thread", e.thread);
    appendField(out, "thread_name", g.threads[e.thread]);
  }
  if (e.monitor != events::kNoMonitor) {
    appendField(out, "monitor", e.monitor);
    appendField(out, "monitor_name", g.monitors[e.monitor]);
  }
  if (e.method != events::kNoMethod) {
    appendField(out, "method_ctx", e.method);
    appendField(out, "method", g.methods[e.method]);
  }
  switch (e.kind) {
    case EventKind::Read:
    case EventKind::Write:
      appendField(out, "var_id", e.aux);
      appendField(out, "var", g.vars[e.aux]);
      break;
    case EventKind::NotifyCall:
    case EventKind::NotifyAllCall:
      appendField(out, "waiters", e.aux);
      break;
    case EventKind::GuardEval:
      appendField(out, "guard_method_id", e.aux);
      appendField(out, "guard_method", g.methods[e.aux]);
      out += e.flag ? ", \"value\": true" : ", \"value\": false";
      break;
    case EventKind::MethodEnter:
    case EventKind::MethodExit:
      appendField(out, "method_id", e.aux);
      break;
    default:
      if (e.aux != 0) appendField(out, "aux", e.aux);
      break;
  }
  out += " }\n";
}

void fillTrace(const GeneratedStream& g, events::Trace& trace) {
  for (std::size_t i = 0; i < g.threads.size(); ++i) {
    trace.nameThread(static_cast<ThreadId>(i), g.threads[i]);
  }
  for (std::size_t i = 0; i < g.monitors.size(); ++i) {
    trace.nameMonitor(static_cast<MonitorId>(i), g.monitors[i]);
  }
  for (std::size_t i = 0; i < g.vars.size(); ++i) {
    trace.nameVar(static_cast<VarId>(i), g.vars[i]);
  }
  for (std::size_t i = 0; i < g.methods.size(); ++i) {
    trace.nameMethod(static_cast<MethodId>(i), g.methods[i]);
  }
  for (const Event& e : g.events) trace.record(e);
}

std::string crossCheckFormat(const GeneratedStream& g, std::size_t n) {
  GeneratedStream head;
  head.threads = g.threads;
  head.monitors = g.monitors;
  head.vars = g.vars;
  head.methods = g.methods;
  head.events.assign(g.events.begin(),
                     g.events.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(n, g.events.size())));
  events::Trace trace;
  fillTrace(head, trace);
  std::string mine;
  for (const Event& e : head.events) appendJsonlLine(head, e, mine);
  const std::string reference = confail::obs::toJsonl(trace);
  if (mine == reference) return "";
  std::size_t at = 0;
  while (at < mine.size() && at < reference.size() && mine[at] == reference[at]) {
    ++at;
  }
  return "generated JSONL differs from obs::toJsonl at byte " +
         std::to_string(at);
}

std::string findingKey(const std::string& core,
                       const confail::detect::Finding& f,
                       const confail::detect::NameSource& names) {
  using confail::detect::FindingKind;
  std::string key = core + "|" + confail::detect::findingKindName(f.kind);
  switch (f.kind) {
    case FindingKind::DataRace:
      return key + "|var=" + names.varName(f.var);
    case FindingKind::DeadlockCycle:
      return key;  // which monitor heads the cycle depends on DFS order
    case FindingKind::WaitingForever:
      return key + "|thread=" + names.threadName(f.thread) +
             "|monitor=" + names.monitorName(f.monitor);
    case FindingKind::EarlyRelease:
      return key + "|thread=" + names.threadName(f.thread) +
             "|var=" + names.varName(f.var);
    default:
      return key + "|thread=" + names.threadName(f.thread) +
             "|monitor=" + names.monitorName(f.monitor) +
             "|var=" + names.varName(f.var);
  }
}

std::vector<std::string> expectedFindingKeys(const GeneratedStream& g) {
  using confail::detect::FindingKind;
  using confail::detect::findingKindName;
  const std::string race = findingKindName(FindingKind::DataRace);
  std::vector<std::string> keys;
  for (VarId v : g.racyVars) {
    keys.push_back("lockset(Eraser)|" + race + "|var=" + g.vars[v]);
    keys.push_back("happens-before(vector-clock)|" + race + "|var=" +
                   g.vars[v]);
  }
  keys.push_back(std::string("lock-order-graph|") +
                 findingKindName(FindingKind::DeadlockCycle));
  keys.push_back(std::string("wait-notify|") +
                 findingKindName(FindingKind::WaitingForever) + "|thread=" +
                 g.threads[g.hungThread] + "|monitor=" +
                 g.monitors[g.hungMonitor]);
  keys.push_back(std::string("release-discipline|") +
                 findingKindName(FindingKind::EarlyRelease) + "|thread=" +
                 g.threads[g.earlyThread] + "|var=" + g.vars[g.earlyVar]);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace cfbench
