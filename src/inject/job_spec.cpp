#include "confail/inject/job_spec.hpp"

#include <algorithm>
#include <utility>

#include "confail/detect/report_sink.hpp"
#include "confail/inject/explore_config.hpp"
#include "confail/obs/json.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/obs/trace_export.hpp"
#include "confail/support/assert.hpp"
#include "confail/taxonomy/taxonomy.hpp"

namespace confail::inject {

using components::scenarios::NamedScenario;
using sched::ExhaustiveExplorer;
using taxonomy::FailureClass;

const char* reductionName(ExhaustiveExplorer::Reduction r) {
  switch (r) {
    case ExhaustiveExplorer::Reduction::None: return "none";
    case ExhaustiveExplorer::Reduction::Sleep: return "sleep";
    case ExhaustiveExplorer::Reduction::Dpor: return "dpor";
  }
  return "?";
}

bool parseReduction(const std::string& name,
                    ExhaustiveExplorer::Reduction& out) {
  if (name == "none") {
    out = ExhaustiveExplorer::Reduction::None;
  } else if (name == "sleep") {
    out = ExhaustiveExplorer::Reduction::Sleep;
  } else if (name == "dpor") {
    out = ExhaustiveExplorer::Reduction::Dpor;
  } else {
    return false;
  }
  return true;
}

ExhaustiveExplorer::Options JobSpec::explorerOptions(
    ExhaustiveExplorer::Reduction r) const {
  ExhaustiveExplorer::Options eo;
  eo.maxRuns = maxRuns;
  eo.maxSteps = maxSteps;
  eo.maxBranchDepth = maxBranchDepth;
  eo.workers = workers;
  eo.reduction = r;
  return eo;
}

namespace {

/// True when axis[i] already occurs before index i: a grid axis lists each
/// value once, or every cell on it would run twice.
template <class T>
bool repeatsEarlier(const std::vector<T>& axis, std::size_t i) {
  const auto end = axis.begin() + static_cast<std::ptrdiff_t>(i);
  return std::find(axis.begin(), end, axis[i]) != end;
}

}  // namespace

std::string JobSpec::validate() const {
  if (name.empty()) return "job name must not be empty";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) {
      return "job name '" + name + "' has characters outside [A-Za-z0-9._-]";
    }
  }
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string& sc = scenarios[i];
    if (components::scenarios::find(sc) == nullptr) {
      return "unknown scenario '" + sc + "'";
    }
    if (repeatsEarlier(scenarios, i)) {
      return "scenario '" + sc + "' is listed twice";
    }
  }
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const char* cls = taxonomy::failureClassName(classes[i]);
    if (!isInjectable(classes[i])) {
      return std::string("class ") + cls + " is not injectable";
    }
    if (repeatsEarlier(classes, i)) {
      return std::string("class ") + cls + " is listed twice";
    }
  }
  if (reductions.empty()) return "reductions must not be empty";
  for (std::size_t i = 0; i < reductions.size(); ++i) {
    if (repeatsEarlier(reductions, i)) {
      return std::string("reduction '") + reductionName(reductions[i]) +
             "' is listed twice";
    }
  }
  if (maxRuns == 0) return "max_runs must be positive";
  if (maxSteps == 0) return "max_steps must be positive";
  if (maxBranchDepth == 0) return "max_branch_depth must be positive";
  if (workers == 0) return "workers must be positive";
  return "";
}

std::string JobSpec::toJson() const {
  obs::JsonWriter w;
  w.beginObject();
  w.field("schema", "confail.job.v1");
  w.field("name", name);
  w.key("scenarios");
  w.beginArray();
  for (const std::string& sc : scenarios) w.value(sc);
  w.endArray();
  w.key("classes");
  w.beginArray();
  for (FailureClass cls : classes) w.value(taxonomy::failureClassName(cls));
  w.endArray();
  w.key("reductions");
  w.beginArray();
  for (auto r : reductions) w.value(reductionName(r));
  w.endArray();
  w.field("max_runs", maxRuns);
  w.field("max_steps", maxSteps);
  w.field("max_branch_depth", static_cast<std::uint64_t>(maxBranchDepth));
  w.field("workers", static_cast<std::uint64_t>(workers));
  w.field("negative_controls", negativeControls);
  w.endObject();
  return w.str();
}

namespace {

/// Read an optional non-negative integer field; false + diagnostic on a
/// type mismatch (absent fields keep the spec's default).
bool readCount(const obs::JsonValue& doc, const std::string& key,
               std::uint64_t& out, std::string& error) {
  const obs::JsonValue* v = doc.get(key);
  if (v == nullptr) return true;
  // 2^64 and up have no uint64 value: converting them is UB.
  if (!v->isNumber() || v->number < 0 ||
      v->number >= 18446744073709551616.0) {
    error = key + " must be a non-negative number below 2^64";
    return false;
  }
  out = static_cast<std::uint64_t>(v->number);
  return true;
}

}  // namespace

bool JobSpec::parse(const std::string& json, JobSpec& out,
                    std::string& error) {
  obs::JsonValue doc;
  try {
    doc = obs::parseJson(json);
  } catch (const Error& e) {
    error = e.what();
    return false;
  }
  if (!doc.isObject()) {
    error = "job document must be a JSON object";
    return false;
  }
  const obs::JsonValue* schema = doc.get("schema");
  if (schema == nullptr || schema->string != "confail.job.v1") {
    error = "missing or unsupported schema (want confail.job.v1)";
    return false;
  }
  JobSpec spec;
  if (const obs::JsonValue* v = doc.get("name")) {
    if (v->kind != obs::JsonValue::Kind::String) {
      error = "name must be a string";
      return false;
    }
    spec.name = v->string;
  }
  if (const obs::JsonValue* v = doc.get("scenarios")) {
    if (!v->isArray()) {
      error = "scenarios must be an array of strings";
      return false;
    }
    for (const obs::JsonValue& e : v->array) {
      if (e.kind != obs::JsonValue::Kind::String) {
        error = "scenarios must be an array of strings";
        return false;
      }
      spec.scenarios.push_back(e.string);
    }
  }
  if (const obs::JsonValue* v = doc.get("classes")) {
    if (!v->isArray()) {
      error = "classes must be an array of Table 1 class names";
      return false;
    }
    for (const obs::JsonValue& e : v->array) {
      FailureClass cls;
      if (e.kind != obs::JsonValue::Kind::String ||
          !taxonomy::parseFailureClass(e.string, cls)) {
        error = "unknown failure class '" + e.string + "'";
        return false;
      }
      spec.classes.push_back(cls);
    }
  }
  if (const obs::JsonValue* v = doc.get("reductions")) {
    if (!v->isArray()) {
      error = "reductions must be an array of none|sleep|dpor";
      return false;
    }
    spec.reductions.clear();
    for (const obs::JsonValue& e : v->array) {
      ExhaustiveExplorer::Reduction r;
      if (e.kind != obs::JsonValue::Kind::String ||
          !parseReduction(e.string, r)) {
        error = "unknown reduction '" + e.string + "' (want none|sleep|dpor)";
        return false;
      }
      spec.reductions.push_back(r);
    }
  }
  if (!readCount(doc, "max_runs", spec.maxRuns, error)) return false;
  if (!readCount(doc, "max_steps", spec.maxSteps, error)) return false;
  std::uint64_t depth = spec.maxBranchDepth;
  std::uint64_t workerCount = spec.workers;
  if (!readCount(doc, "max_branch_depth", depth, error)) return false;
  if (!readCount(doc, "workers", workerCount, error)) return false;
  spec.maxBranchDepth = static_cast<std::size_t>(depth);
  spec.workers = static_cast<std::size_t>(workerCount);
  if (const obs::JsonValue* v = doc.get("negative_controls")) {
    if (v->kind != obs::JsonValue::Kind::Bool) {
      error = "negative_controls must be a boolean";
      return false;
    }
    spec.negativeControls = v->boolean;
  }
  out = std::move(spec);
  error.clear();
  return true;
}

std::string ShardSpec::describe() const {
  std::string s = scenario;
  if (control) {
    s += " control";
  } else {
    s += " x ";
    s += taxonomy::failureClassName(cls);
  }
  s += " [";
  s += reductionName(reduction);
  s += "]";
  return s;
}

std::vector<ShardSpec> expandShards(const JobSpec& spec) {
  const std::string problem = spec.validate();
  CONFAIL_CHECK(problem.empty(), UsageError, "invalid job spec: " + problem);

  std::vector<const NamedScenario*> scs;
  if (spec.scenarios.empty()) {
    for (const NamedScenario& sc : components::scenarios::registry()) {
      scs.push_back(&sc);
    }
  } else {
    for (const std::string& name : spec.scenarios) {
      scs.push_back(components::scenarios::find(name));  // validated above
    }
  }
  std::vector<FailureClass> classes = spec.classes;
  if (classes.empty()) classes = injectableClasses();

  std::vector<ShardSpec> shards;
  auto push = [&shards](ShardSpec s) {
    s.index = shards.size();
    shards.push_back(std::move(s));
  };
  for (const NamedScenario* sc : scs) {
    for (auto r : spec.reductions) {
      for (FailureClass cls : classes) {
        if (!planApplies(cls, *sc)) continue;
        ShardSpec s;
        s.scenario = sc->name;
        s.cls = cls;
        s.reduction = r;
        push(std::move(s));
      }
    }
  }
  if (spec.negativeControls) {
    for (const NamedScenario* sc : scs) {
      if (sc->faultSeeded) continue;  // seeded scenarios are not clean
      for (auto r : spec.reductions) {
        ShardSpec s;
        s.control = true;
        s.scenario = sc->name;
        s.reduction = r;
        push(std::move(s));
      }
    }
  }
  return shards;
}

namespace {

/// Both runShard overloads: `run`, when given, always receives the captured
/// run; otherwise one is captured only when finding names need it.
ShardResult executeShard(const JobSpec& spec, const ShardSpec& shard,
                         bool resolveNames, events::Trace* run) {
  ShardResult r;
  r.spec = shard;
  const NamedScenario* sc = components::scenarios::find(shard.scenario);
  CONFAIL_CHECK(sc != nullptr, UsageError,
                "shard names unknown scenario '" + shard.scenario + "'");

  const ExhaustiveExplorer::Options eo =
      spec.explorerOptions(shard.reduction);
  detect::ReportSink sink;
  InjectionPlan plan;
  if (shard.control) {
    r.control = runControl(*sc, eo, &sink);
  } else {
    plan = defaultPlanFor(shard.cls, *sc);
    r.cell = runCell(*sc, plan, eo, &sink);
  }

  r.findings.reserve(sink.size());
  for (const detect::ReportSink::Entry& e : sink.entries()) {
    ShardFinding f;
    f.detector = e.detector;
    f.finding = e.finding;
    r.findings.push_back(std::move(f));
  }

  const bool needNames = resolveNames && !r.findings.empty();
  if (needNames || run != nullptr) {
    // One deterministic captured run: the scenario's wiring assigns ids in
    // construction order, so this trace's name tables cover the ids the
    // exploration's findings carry.
    events::Trace local;
    events::Trace& captured = run != nullptr ? *run : local;
    obs::Registry reg;
    ExploreConfig cfg;
    cfg.scenario(*sc);
    if (!shard.control) cfg.plan(plan);
    cfg.capture(captured, reg);
    if (needNames) {
      const detect::TraceNames names(captured);
      for (ShardFinding& f : r.findings) {
        if (f.finding.thread != events::kNoThread) {
          f.thread = names.threadName(f.finding.thread);
        }
        if (f.finding.thread2 != events::kNoThread) {
          f.thread2 = names.threadName(f.finding.thread2);
        }
        if (f.finding.monitor != events::kNoMonitor) {
          f.monitor = names.monitorName(f.finding.monitor);
        }
        if (f.finding.var != events::kNoVar) {
          f.var = names.varName(f.finding.var);
        }
      }
    }
  }
  return r;
}

}  // namespace

ShardResult runShard(const JobSpec& spec, const ShardSpec& shard,
                     const RunShardOptions& opts) {
  if (!opts.captureEvents) {
    return executeShard(spec, shard, opts.resolveNames, nullptr);
  }
  events::Trace run;
  ShardResult r = executeShard(spec, shard, opts.resolveNames, &run);
  r.eventsJsonl = obs::toJsonl(run);
  return r;
}

ShardResult runShard(const JobSpec& spec, const ShardSpec& shard,
                     const RunShardOptions& opts, events::Trace& run) {
  return executeShard(spec, shard, opts.resolveNames, &run);
}

CampaignResult campaignFromShards(const JobSpec& spec,
                                  const std::vector<ShardResult>& shards) {
  CampaignResult result;
  result.spec = spec;
  for (const ShardResult& s : shards) {
    if (s.spec.control) {
      result.controls.push_back(s.control);
    } else {
      result.cells.push_back(s.cell);
    }
  }
  return result;
}

}  // namespace confail::inject
