#include "confail/events/event.hpp"

#include <array>

#include "confail/support/assert.hpp"

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

}  // namespace confail::events
