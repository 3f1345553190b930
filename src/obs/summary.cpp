#include "confail/obs/summary.hpp"

#include <cstdarg>
#include <cstdio>

#include "confail/obs/json.hpp"
#include "confail/obs/metrics.hpp"

namespace confail::obs {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

void ExploreSummary::addHistogramPercentiles(const Snapshot& snap) {
  for (const Snapshot::HistogramStats& h : snap.histograms) {
    if (h.count == 0) continue;
    histogramPercentiles.emplace_back(h.name, h.percentileLine());
  }
}

std::string ExploreSummary::human() const {
  std::string out;
  appendf(out, "scenario:       %s\n", scenario.c_str());
  appendf(out, "runs:           %llu (%s)\n",
          static_cast<unsigned long long>(runs),
          exhausted ? "tree exhausted" : "budget or callback bounded");
  appendf(out, "completed:      %llu\n",
          static_cast<unsigned long long>(completed));
  appendf(out, "deadlocks:      %llu (%llu distinct state%s)\n",
          static_cast<unsigned long long>(deadlocks),
          static_cast<unsigned long long>(distinctDeadlockStates),
          distinctDeadlockStates == 1 ? "" : "s");
  if (stepLimited > 0 || exceptions > 0) {
    appendf(out, "step-limited:   %llu   exceptions: %llu\n",
            static_cast<unsigned long long>(stepLimited),
            static_cast<unsigned long long>(exceptions));
  }
  if (reductionsEnabled) {
    appendf(out, "reductions:     %llu states deduped, %llu branches pruned\n",
            static_cast<unsigned long long>(dedupedStates),
            static_cast<unsigned long long>(prunedBranches));
  }
  if (elapsedMs > 0.0) {
    appendf(out, "elapsed:        %.1f ms (%.0f runs/sec)\n", elapsedMs,
            runsPerSec);
  }
  for (const auto& [name, line] : histogramPercentiles) {
    appendf(out, "latency:        %s %s\n", name.c_str(), line.c_str());
  }
  if (!firstFailure.empty()) {
    out += "first failure:  ";
    for (std::size_t i = 0; i < firstFailure.size(); ++i) {
      appendf(out, "%s%u", i ? " " : "", firstFailure[i]);
    }
    out +=
        "\n(replayable: the schedule above reproduces the failure "
        "deterministically)\n";
  }
  return out;
}

void ExploreSummary::writeJson(JsonWriter& w) const {
  w.beginObject();
  w.field("scenario", scenario);
  w.field("runs", runs);
  w.field("completed", completed);
  w.field("deadlocks", deadlocks);
  w.field("distinct_deadlock_states", distinctDeadlockStates);
  w.field("step_limited", stepLimited);
  w.field("exceptions", exceptions);
  w.field("deduped_states", dedupedStates);
  w.field("pruned_branches", prunedBranches);
  w.field("sleep_blocked_runs", sleepBlockedRuns);
  w.field("exhausted", exhausted);
  w.field("stopped_by_callback", stoppedByCallback);
  if (elapsedMs > 0.0) {
    w.field("elapsed_ms", elapsedMs);
    w.field("runs_per_sec", runsPerSec);
  }
  if (!firstFailureOutcome.empty()) {
    w.field("first_failure_outcome", firstFailureOutcome);
  }
  if (!histogramPercentiles.empty()) {
    w.key("histogram_percentiles");
    w.beginObject();
    for (const auto& [name, line] : histogramPercentiles) {
      w.field(name, line);
    }
    w.endObject();
  }
  w.key("first_failure");
  w.beginArray();
  for (std::uint32_t step : firstFailure) w.value(step);
  w.endArray();
  w.endObject();
}

std::string ExploreSummary::toJson() const {
  JsonWriter w;
  writeJson(w);
  return w.str();
}

}  // namespace confail::obs
