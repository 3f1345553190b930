#include "confail/events/event.hpp"

#include <array>
#include <sstream>

#include "confail/support/assert.hpp"
#include "confail/support/text.hpp"

namespace confail::events {

namespace {
constexpr std::array<std::string_view, 18> kKindNames = {
    "LockRequest",  "LockAcquire", "WaitBegin",  "LockRelease", "Notified",
    "NotifyCall",   "NotifyAllCall", "SpuriousWake",
    "Read",         "Write",
    "ThreadSpawn",  "ThreadStart", "ThreadEnd",
    "MethodEnter",  "MethodExit",  "GuardEval",
    "ClockAwait",   "ClockTick",
};
}  // namespace

const char* kindName(EventKind k) {
  auto idx = static_cast<std::size_t>(k);
  CONFAIL_ASSERT(idx < kKindNames.size(), "unknown EventKind");
  return kKindNames[idx].data();  // literals: NUL-terminated
}

bool tryKindFromName(std::string_view name, EventKind& out) {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (name == kKindNames[i]) {
      out = static_cast<EventKind>(i);
      return true;
    }
  }
  return false;
}

EventKind kindFromName(const std::string& name) {
  EventKind k = EventKind::ThreadStart;
  if (tryKindFromName(name, k)) return k;
  throw UsageError("unknown event kind name: " + name);
}

bool isModelTransition(EventKind k) {
  switch (k) {
    case EventKind::LockRequest:
    case EventKind::LockAcquire:
    case EventKind::WaitBegin:
    case EventKind::LockRelease:
    case EventKind::Notified:
      return true;
    default:
      return false;
  }
}

std::string Event::toString() const {
  std::ostringstream os;
  os << seq << ' ' << thread << ' ' << kindName(kind) << ' '
     << static_cast<std::int64_t>(monitor == kNoMonitor ? -1 : static_cast<std::int64_t>(monitor))
     << ' ' << aux << ' '
     << static_cast<std::int64_t>(method == kNoMethod ? -1 : static_cast<std::int64_t>(method))
     << ' ' << (flag ? 1 : 0);
  return os.str();
}

Event Event::parse(const std::string& line) {
  std::istringstream is(line);
  Event e;
  std::string kind;
  std::int64_t mon = -1;
  std::int64_t method = -1;
  int flag = 0;
  if (!(is >> e.seq >> e.thread >> kind >> mon >> e.aux >> method >> flag)) {
    throw UsageError("malformed event line: " + line);
  }
  e.kind = kindFromName(kind);
  e.monitor = mon < 0 ? kNoMonitor : static_cast<MonitorId>(mon);
  e.method = method < 0 ? kNoMethod : static_cast<MethodId>(method);
  e.flag = flag != 0;
  return e;
}

}  // namespace confail::events
