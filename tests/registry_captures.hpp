// The captured runs a campaign's shards take: for every registry scenario,
// its clean run plus one run per injectable class that applies to it (the
// classes inject::expandShards keeps), each with the class's default plan.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "confail/components/scenario_registry.hpp"
#include "confail/inject/campaign.hpp"
#include "confail/inject/job_spec.hpp"
#include "confail/taxonomy/taxonomy.hpp"

namespace confail::testing {

struct CaptureCase {
  const components::scenarios::NamedScenario* scenario = nullptr;
  std::optional<inject::InjectionPlan> plan;  ///< nullopt: the clean run
  std::string label;                          ///< "fig2 clean", "fig2 FF-T3"
};

inline std::vector<CaptureCase> registryCaptureCases() {
  std::vector<CaptureCase> cases;
  for (const components::scenarios::NamedScenario& sc :
       components::scenarios::registry()) {
    cases.push_back({&sc, std::nullopt, sc.name + " clean"});
    inject::JobSpec spec;
    spec.scenarios = {sc.name};
    spec.negativeControls = false;
    for (const inject::ShardSpec& shard : inject::expandShards(spec)) {
      cases.push_back({&sc, inject::defaultPlanFor(shard.cls, sc),
                       sc.name + " " + taxonomy::failureClassName(shard.cls)});
    }
  }
  return cases;
}

}  // namespace confail::testing
