// Steady-state allocation audit of the ingest hot path.  The build-time
// grep audit (cmake/alloc_audit.cmake) covers the ring and the line
// scanner, whose TUs allocate nothing at all; the flat detector cores and
// decodeBlock use vectors that grow while they warm up, which a grep
// cannot tell from per-event allocation.  So this binary replaces global
// operator new with a counting one, warms HbCore, LocksetCore and
// decodeBlock on a stream, then replays the stream over the same ids and
// requires that the replay allocates nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "confail/components/scenario_registry.hpp"
#include "confail/detect/hb_detector.hpp"
#include "confail/detect/lockset.hpp"
#include "confail/events/trace.hpp"
#include "confail/gen/generator.hpp"
#include "confail/gen/interpret.hpp"
#include "confail/ingest/decode.hpp"
#include "confail/inject/explore_config.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/obs/trace_export.hpp"

namespace {
std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void* countedAlloc(std::size_t n) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using confail::events::Event;
using confail::events::Trace;
namespace detect = confail::detect;
namespace ingest = confail::ingest;
namespace scenarios = confail::components::scenarios;

Trace capture(const scenarios::NamedScenario& sc) {
  Trace trace;
  confail::obs::Registry metrics;
  confail::inject::ExploreConfig cfg;
  cfg.scenario(sc);
  cfg.capture(trace, metrics);
  return trace;
}

/// Registry scenarios and fuzzer programs: waits, spawns, nested locks,
/// races.
std::vector<Trace> traces() {
  std::vector<Trace> out;
  for (const scenarios::NamedScenario& sc : scenarios::registry()) {
    out.push_back(capture(sc));
  }
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    out.push_back(capture(confail::gen::asScenario(
        confail::gen::generate(seed, confail::gen::GenConfig{}),
        "alloc_audit")));
  }
  return out;
}

/// Allocations made by `f`.
template <typename F>
std::uint64_t allocationsIn(F&& f) {
  allocations.store(0);
  counting.store(true);
  f();
  counting.store(false);
  return allocations.load();
}

TEST(SteadyState, CoresFeedWithoutAllocatingOnceWarm) {
  for (const Trace& trace : traces()) {
    const std::vector<Event> events = trace.events();  // a copy
    detect::HbCore hb;
    detect::LocksetCore lockset;
    std::vector<detect::Finding> found;
    found.reserve(1024);
    // Two warm-up passes: the second meets the first's state (a race
    // across the seam between passes is reported there).
    for (int pass = 0; pass < 2; ++pass) {
      for (const Event& e : events) {
        hb.feed(e, found);
        lockset.feed(e, found);
      }
    }
    // Findings are reported once per variable, so the replay adds none.
    const std::size_t findings = found.size();
    const std::uint64_t n = allocationsIn([&] {
      for (const Event& e : events) {
        hb.feed(e, found);
        lockset.feed(e, found);
      }
    });
    EXPECT_EQ(n, 0u) << events.size() << " events";
    EXPECT_EQ(found.size(), findings);
  }
}

TEST(SteadyState, DecodeBlockWithoutAllocatingOnceWarm) {
  std::string text;
  for (const Trace& trace : traces()) text += confail::obs::toJsonl(trace);
  std::vector<std::string_view> blocks;
  std::string_view rest = text;
  for (std::size_t n;
       (n = ingest::wholeLinesPrefix(rest, ingest::kDecodeBlockBytes)) > 0;) {
    blocks.push_back(rest.substr(0, n));
    rest.remove_prefix(n);
  }
  ASSERT_GT(blocks.size(), 2u);
  ingest::DecodedBlock out;
  for (const std::string_view b : blocks) ingest::decodeBlock(b, out);
  std::uint64_t events = 0;
  const std::uint64_t n = allocationsIn([&] {
    for (const std::string_view b : blocks) {
      ingest::decodeBlock(b, out);
      events += out.events.size();
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_GT(events, 0u);
}

}  // namespace
