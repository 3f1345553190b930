// IR interpreter: run a gen::Program on the VirtualScheduler / Runtime
// substrate, and wrap one as a first-class NamedScenario.
//
// The interpreter is built like the hand-written scenarios in
// components/scenarios.hpp: a State derived from ScenarioState (trace,
// Runtime, injection decoration, snapshot-safety declaration) that adds
// monitors "m0.." and shared vars "v0..", kept alive by the spawn closures
// of threads named "t0..".  Loop state lives in fixed-size stack locals (no
// heap-owning locals cross a schedule point), so fiber snapshots capture it
// correctly.
//
// asScenario() is how generated programs enter the existing machinery:
// the returned NamedScenario is a self-contained value (it owns a copy of
// the Program) whose capability flags are computed from the IR, usable
// anywhere a registry entry is — ExploreConfig::scenario(),
// inject::runCell(), the detector suite.
#pragma once

#include <string>

#include "confail/components/scenario_registry.hpp"
#include "confail/gen/ir.hpp"

namespace confail::gen {

/// Spawn the program's threads on `s`; pass `{}` for a plain run.  The
/// program must be valid (validate() == true); op references past the
/// declared monitor/var counts are undefined behavior.
void interpret(const Program& p, sched::VirtualScheduler& s,
               const components::scenarios::Instruments& ins);

/// Wrap a generated program as a first-class scenario value.
components::scenarios::NamedScenario asScenario(const Program& p,
                                                std::string name);

}  // namespace confail::gen
