// cfbench runner: one workload, one seed, one run.
//
//   cfbench --workload NAME --seed N --seconds S --trace 0|1
//           --work-dir DIR --out-dir DIR --confail-bin PATH
//           [--revision REV] [--source-digest HEX]
//
// Prints a human report (provenance, every metric with unit and sample
// count, the output checks) and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  The same
// figures, stamped with provenance, go to DIR/<workload>-seed<N>-trace<T>.json
// and, in the traced run, the spans to DIR/spans-<workload>-seed<N>.json.
// Exit status: 0 when a result was printed, 2 on usage errors, 3 when the
// run could not complete.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"

namespace cfbench {
namespace {

constexpr int kSetups = 7;
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMinTracedReps = 2;

struct Args {
  std::string workload;
  Ctx ctx;
  std::string outDir;
  std::string revision = "unknown";
  std::string sourceDigest = "unknown";
};

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "explore_ff_t5") return makeExploreWorkload();
  if (name == "ingest_jsonl") return makeIngestWorkload();
  if (name == "campaign_serve") return makeServeWorkload();
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: cfbench --workload explore_ff_t5|ingest_jsonl|"
               "campaign_serve\n"
               "               --seed N --seconds S --trace 0|1 --work-dir DIR"
               " --out-dir DIR\n"
               "               --confail-bin PATH [--revision REV]"
               " [--source-digest HEX]\n");
  return 2;
}

bool parseArgs(int argc, char** argv, Args& a) {
  bool haveTrace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.ctx.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.ctx.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.ctx.trace = v == "1";
      haveTrace = v == "0" || v == "1";
    } else if (k == "--work-dir") {
      a.ctx.workDir = v;
    } else if (k == "--out-dir") {
      a.outDir = v;
    } else if (k == "--confail-bin") {
      a.ctx.confailBin = v;
    } else if (k == "--revision") {
      a.revision = v;
    } else if (k == "--source-digest") {
      a.sourceDigest = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && haveTrace &&
         a.ctx.seconds > 0 && !a.ctx.workDir.empty() && !a.outDir.empty() &&
         !a.ctx.confailBin.empty();
}

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metricsJson(const Metrics& m, bool withSamples) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m.items()) {
    out += first ? "" : ", ";
    first = false;
    out += jsonString(name) + ": {\"value\": " + number(metric.value) +
           ", \"unit\": " + jsonString(metric.unit);
    if (withSamples) out += ", \"samples\": " + std::to_string(metric.samples);
    out += "}";
  }
  return out + "}";
}

void printMetrics(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m.items()) {
    std::printf("  %-40s %16.6g %-6s (n=%llu)\n", name.c_str(), metric.value,
                metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples));
  }
}

class Runner {
 public:
  explicit Runner(Args a) : a_(std::move(a)) {}

  int run() {
    w_ = makeWorkload(a_.workload);
    if (w_ == nullptr) return usage();
    Ctx& ctx = a_.ctx;
    ctx.hardware = std::max(1u, std::thread::hardware_concurrency());
    ctx.workers = std::min<std::size_t>(4, ctx.hardware);
    std::filesystem::create_directories(ctx.workDir);
    std::filesystem::create_directories(a_.outDir);

    // Set-up, several times: the median is setup_s.
    for (int i = 0; i < kSetups; ++i) {
      const auto t0 = Clock::now();
      w_->setup(ctx);
      setupSec_.push_back(secondsSince(t0));
    }
    w_->stage(ctx);
    // Hand set-up's freed heap back first, so the high-water mark starts
    // from what the timed phase keeps.
    ::malloc_trim(0);
    const bool rssReset = resetPeakRss();

    std::vector<RepOutcome> reps;
    Metrics metrics;
    const auto t0 = Clock::now();
    if (!ctx.trace) {
      while (failure_.empty() &&
             (reps.size() < kMinReps || secondsSince(t0) < ctx.seconds)) {
        runRep(nullptr, reps);
      }
      e2e_.set("setup_s", median(setupSec_), "s", setupSec_.size());
      e2e_.set("time_to_verdict_s", median(seconds(reps)), "s", reps.size());
      e2e_.set("peak_rss_mb", w_->timedPeakRssMb(), "MB", 1);
      metrics = e2e_;
    } else {
      // Untraced and traced batches alternate, so drift in the host's
      // speed weighs on both alike.
      std::vector<RepOutcome> traced;
      while (failure_.empty() && (traced.size() < kMinTracedReps ||
                                  secondsSince(t0) < ctx.seconds)) {
        runRep(nullptr, reps);
        if (failure_.empty()) runRep(&tracer_, traced);
      }
      const double plain = median(seconds(reps));
      const double withSpans = median(seconds(traced));
      e2e_.set("setup_s", median(setupSec_), "s", setupSec_.size());
      e2e_.set("time_to_verdict_s", plain, "s", reps.size());
      if (failure_.empty()) {
        own_.set("trace_overhead_pct", (withSpans / plain - 1.0) * 100.0, "%",
                 traced.size());
        w_->layers(ctx, tracer_, plain, own_);
        runReferences();
      }
      for (const Metrics* m : {&own_, &reference_}) {
        for (const auto& [name, metric] : m->items()) {
          metrics.set(name, metric.value, metric.unit, metric.samples);
        }
      }
      reps.insert(reps.end(), traced.begin(), traced.end());
    }

    // Negative self-check: the corrupted output must be rejected.
    const std::string corrupted = w_->checkCorrupted();
    std::uint64_t attempted = 0, failed = 0;
    for (const RepOutcome& r : reps) {
      attempted += r.attempted;
      failed += r.failed;
    }
    Metrics extras;
    w_->reportExtras(median(seconds(reps)), reps.size(), extras);
    extras.set("failed_ratio",
               attempted ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0,
               "ratio", attempted);
    const bool correct =
        failure_.empty() && !corrupted.empty() && failed == 0 && attempted > 0;

    const std::string stamp = provenance(rssReset);
    std::printf("cfbench %s seed=%llu trace=%d reps=%zu\n", a_.workload.c_str(),
                static_cast<unsigned long long>(ctx.seed), ctx.trace ? 1 : 0,
                reps.size());
    std::printf("provenance: {%s}\n", stamp.c_str());
    printMetrics("end-to-end:", e2e_);
    printMetrics("workload figures:", extras);
    if (ctx.trace) {
      printMetrics("per-layer, from this workload's traced batches and inputs:",
                   own_);
      printMetrics("per-layer, from reference instances of the other "
                   "workloads and the gen probe:",
                   reference_);
      std::printf("span self times:\n");
      for (const Tracer::SelfTime& st : tracer_.selfTimes()) {
        std::printf("  %-40s count=%-6llu total=%.6fs self=%.6fs\n",
                    st.name.c_str(), static_cast<unsigned long long>(st.count),
                    st.totalSec, st.selfSec);
      }
    }
    std::printf("output check: %s\n",
                failure_.empty() ? "OK" : ("FAIL: " + failure_).c_str());
    std::printf("self-check (corrupted output rejected): %s\n",
                corrupted.empty() ? "FAIL: corruption not detected"
                                  : ("OK: " + corrupted).c_str());

    const std::string base = a_.outDir + "/" + a_.workload + "-seed" +
                             std::to_string(ctx.seed) + "-trace" +
                             (ctx.trace ? "1" : "0");
    std::ofstream res(base + ".json");
    res << "{\"schema\": \"cfbench.result.v1\", \"provenance\": {" << stamp
        << "}, \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"end_to_end\": " << metricsJson(e2e_, true)
        << ", \"workload\": " << metricsJson(extras, true)
        << ", \"per_layer\": " << metricsJson(metrics, true)
        << ", \"rep_seconds\": [";
    for (std::size_t i = 0; i < reps.size(); ++i) {
      res << (i ? ", " : "") << number(reps[i].seconds);
    }
    res << "], \"setup_seconds\": [";
    for (std::size_t i = 0; i < setupSec_.size(); ++i) {
      res << (i ? ", " : "") << number(setupSec_[i]);
    }
    res << "]}\n";
    if (ctx.trace) {
      const std::string spans = a_.outDir + "/spans-" + a_.workload + "-seed" +
                                std::to_string(ctx.seed) + ".json";
      if (!tracer_.writeJson(spans, stamp)) {
        throw std::runtime_error("cannot write " + spans);
      }
      std::printf("spans: %s (%zu spans)\n", spans.c_str(), tracer_.size());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metricsJson(metrics, false).c_str());
    return 0;
  }

 private:
  static std::vector<double> seconds(const std::vector<RepOutcome>& reps) {
    std::vector<double> s;
    for (const RepOutcome& r : reps) s.push_back(r.seconds);
    return s;
  }

  /// One batch of the closed loop: the next batch starts when this one is
  /// checked.
  void runRep(Tracer* tr, std::vector<RepOutcome>& out) {
    w_->prepareRep(a_.ctx);
    if (tr != nullptr) {
      tr->newRun(a_.workload + ".rep" + std::to_string(out.size()));
    }
    {
      Tracer::Scope span(tr, a_.workload + ".rep");
      out.push_back(w_->rep(tr));
    }
    failure_ = w_->check();
  }

  /// The layers this workload never calls, on reference instances of the
  /// workloads that do, and the gen/petri probe.
  void runReferences() {
    for (auto make : {makeExploreWorkload, makeIngestWorkload,
                      makeServeWorkload}) {
      std::unique_ptr<Workload> ref = make();
      if (a_.workload == ref->name()) continue;
      Tracer::Scope span(&tracer_, std::string("reference.") + ref->name());
      ref->reference(a_.ctx, tracer_, reference_);
    }
    Tracer::Scope span(&tracer_, "probe.gen");
    genProbe(a_.ctx, tracer_, reference_);
  }

  std::string provenance(bool rssReset) const {
    const Ctx& c = a_.ctx;
    std::ostringstream os;
    os << "\"revision\": " << jsonString(a_.revision)
       << ", \"source_digest\": " << jsonString(a_.sourceDigest)
       << ", \"workload\": " << jsonString(a_.workload)
       << ", \"seed\": " << c.seed << ", \"seconds\": " << number(c.seconds)
       << ", \"trace\": " << (c.trace ? 1 : 0)
       << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"hardware_concurrency\": " << c.hardware
       << ", \"build_type\": " << jsonString(CFBENCH_BUILD_TYPE)
       << ", \"compiler\": " << jsonString(CFBENCH_COMPILER)
       << ", \"workers\": " << c.workers
       << ", \"peak_rss_reset\": " << (rssReset ? "true" : "false");
    const std::string extra = w_->provenance();
    if (!extra.empty()) os << ", " << extra;
    return os.str();
  }

  Args a_;
  std::unique_ptr<Workload> w_;
  std::vector<double> setupSec_;
  Metrics e2e_;
  Metrics own_;        ///< per-layer, from this workload
  Metrics reference_;  ///< per-layer, from reference instances
  Tracer tracer_;
  std::string failure_;
};

}  // namespace
}  // namespace cfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold: glibc otherwise raises it after set-up frees
  // its large buffers, and whether a later large block then lands on the
  // heap (and stays resident after free) depends on allocation history.
  ::mallopt(M_MMAP_THRESHOLD, 1 << 20);
  cfbench::Args args;
  try {
    if (!cfbench::parseArgs(argc, argv, args)) return cfbench::usage();
  } catch (const std::exception&) {
    return cfbench::usage();
  }
  try {
    return cfbench::Runner(std::move(args)).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cfbench: %s\n", e.what());
    return 3;
  }
}
