#include "confail/events/trace.hpp"

#include <sstream>

#include "confail/support/assert.hpp"

namespace confail::events {

Trace::Trace(Trace&& other) noexcept
    : nextSeq_(other.nextSeq_),
      events_(std::move(other.events_)),
      sinks_(std::move(other.sinks_)),
      threadNames_(std::move(other.threadNames_)),
      monitorNames_(std::move(other.monitorNames_)),
      varNames_(std::move(other.varNames_)),
      methodNames_(std::move(other.methodNames_)) {}

std::uint64_t Trace::record(Event e) {
  std::lock_guard<std::mutex> g(mu_);
  e.seq = nextSeq_++;
  events_.push_back(e);
  for (EventSink* s : sinks_) {
    s->onEvent(e);
  }
  return e.seq;
}

void Trace::addSink(EventSink* sink) {
  CONFAIL_ASSERT(sink != nullptr, "null sink");
  std::lock_guard<std::mutex> g(mu_);
  sinks_.push_back(sink);
}

std::string Trace::lookup(const NameTable& table, std::uint32_t id,
                          const char* prefix) {
  const std::string* name = table.find(id);
  if (name != nullptr && !name->empty()) return *name;
  return std::string(prefix) + std::to_string(id);
}

std::uint32_t Trace::find(const NameTable& table, const std::string& name,
                          std::uint32_t none) {
  std::uint32_t found = none;
  table.forEach([&](std::uint32_t id, const std::string& slot) {
    if (found == none && slot == name) found = id;
  });
  return found;
}

void Trace::nameThread(ThreadId id, std::string name) {
  std::lock_guard<std::mutex> g(mu_);
  threadNames_[id] = std::move(name);
}
void Trace::nameMonitor(MonitorId id, std::string name) {
  std::lock_guard<std::mutex> g(mu_);
  monitorNames_[id] = std::move(name);
}
void Trace::nameVar(VarId id, std::string name) {
  std::lock_guard<std::mutex> g(mu_);
  varNames_[id] = std::move(name);
}
void Trace::nameMethod(MethodId id, std::string name) {
  std::lock_guard<std::mutex> g(mu_);
  methodNames_[id] = std::move(name);
}

std::string Trace::threadName(ThreadId id) const {
  std::lock_guard<std::mutex> g(mu_);
  return lookup(threadNames_, id, "thread-");
}
std::string Trace::monitorName(MonitorId id) const {
  std::lock_guard<std::mutex> g(mu_);
  return lookup(monitorNames_, id, "monitor-");
}
std::string Trace::varName(VarId id) const {
  std::lock_guard<std::mutex> g(mu_);
  return lookup(varNames_, id, "var-");
}
std::string Trace::methodName(MethodId id) const {
  std::lock_guard<std::mutex> g(mu_);
  return lookup(methodNames_, id, "method-");
}

MethodId Trace::findMethod(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  return find(methodNames_, name, kNoMethod);
}

MonitorId Trace::findMonitor(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  return find(monitorNames_, name, kNoMonitor);
}

std::vector<Event> Trace::events() const {
  std::lock_guard<std::mutex> g(mu_);
  return events_;
}

std::size_t Trace::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return events_.size();
}

void Trace::clear() {
  std::lock_guard<std::mutex> g(mu_);
  events_.clear();
  nextSeq_ = 0;
}

void Trace::truncate(std::size_t n) {
  std::lock_guard<std::mutex> g(mu_);
  if (events_.size() > n) events_.resize(n);
  nextSeq_ = events_.size();
}

void Trace::restore(const std::vector<Event>& events) {
  std::lock_guard<std::mutex> g(mu_);
  events_ = events;
  nextSeq_ = events_.size();
}

std::vector<Event> Trace::threadProjection(ThreadId id) const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<Event> out;
  for (const Event& e : events_) {
    if (e.thread == id) out.push_back(e);
  }
  return out;
}

std::vector<Event> Trace::monitorProjection(MonitorId id) const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<Event> out;
  for (const Event& e : events_) {
    if (e.monitor == id) out.push_back(e);
  }
  return out;
}

void Trace::render(const std::function<void(const std::string&)>& emit) const {
  std::vector<Event> snapshot = events();
  for (const Event& e : snapshot) {
    std::ostringstream os;
    os << e.seq << "  " << threadName(e.thread) << "  " << kindName(e.kind);
    if (e.monitor != kNoMonitor) os << "  on " << monitorName(e.monitor);
    switch (e.kind) {
      case EventKind::Read:
      case EventKind::Write:
        os << "  var " << varName(static_cast<VarId>(e.aux));
        break;
      case EventKind::MethodEnter:
      case EventKind::MethodExit:
        os << "  " << methodName(static_cast<MethodId>(e.aux));
        break;
      case EventKind::GuardEval:
        os << "  " << methodName(static_cast<MethodId>(e.aux))
           << (e.flag ? "  guard=true" : "  guard=false");
        break;
      case EventKind::ThreadSpawn:
        os << "  child " << threadName(static_cast<ThreadId>(e.aux));
        break;
      case EventKind::NotifyCall:
      case EventKind::NotifyAllCall:
        os << "  waiters=" << e.aux;
        break;
      case EventKind::ClockAwait:
      case EventKind::ClockTick:
        os << "  t=" << e.aux;
        break;
      default:
        break;
    }
    emit(os.str());
  }
}

}  // namespace confail::events
