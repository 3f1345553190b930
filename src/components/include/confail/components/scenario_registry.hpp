// Scenario registry: the canonical named-scenario table, shared by the
// unified `confail` CLI (explore/inject/fuzz verbs), the injection campaign
// driver and the tests, so every consumer sees the same scenarios with the
// same names, order and capability flags.
//
// NamedScenario is a *value* type over std::function, so scenarios do not
// have to be free functions compiled into this table: confail::gen builds
// NamedScenario values at run time for machine-generated monitor programs
// (gen::asScenario) and feeds them to the same ExploreConfig / runCell
// machinery the registry entries use.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "confail/components/scenarios.hpp"

namespace confail::components::scenarios {

using ScenarioFn = std::function<void(confail::sched::VirtualScheduler&)>;
using InstrumentedScenarioFn =
    std::function<void(confail::sched::VirtualScheduler&, const Instruments&)>;

/// One canonical scenario plus the capability flags exploration and
/// injection drivers need to decide what applies to it.
struct NamedScenario {
  std::string name;
  /// A plain run of `ifn`, filled by bindPlainFn().  Kept only for the
  /// benchmark harness, which calls it; everything else calls `ifn`.
  ScenarioFn fn;
  InstrumentedScenarioFn ifn;  ///< the scenario; empty Instruments = plain
  bool hasBuffer = false;      ///< registers buf.put/buf.take (CoFG coverage)
  bool faultSeeded = false;    ///< carries a seeded failure even uninjected
  bool usesMonitor = false;    ///< lock deviations (FF-T1/T2/T4, EF-T2/T4)
  bool usesWaitNotify = false; ///< wait/notify deviations (FF/EF-T3/T5)
  std::string starveVictim;    ///< thread name the FF-T2 starve plan targets
  std::string blurb;
};

/// Set `sc.fn` to run `sc.ifn` with empty Instruments.
void bindPlainFn(NamedScenario& sc);

/// All scenarios, in the stable order the CLI lists them.
const std::vector<NamedScenario>& registry();

/// Lookup by name; nullptr when unknown.
const NamedScenario* find(const std::string& name);

}  // namespace confail::components::scenarios
