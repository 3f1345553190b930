// cfbench: shared vocabulary of the benchmark runner.
//
// A run measures one workload: set it up several times (the median is
// setup_s), then repeat its batch job closed-loop until the time budget is
// spent (the median batch wall time is time_to_verdict_s), checking every
// batch's output against the workload's known answer.  The traced run
// (--trace 1) interleaves untraced and traced batches; the traced ones
// record spans around the calls into each layer and attach an
// obs::Registry.  The workload's per-layer metrics come from its own traced
// batches and inputs; the layers it never calls are measured on a small
// reference instance of the workload that does call them.  See README.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median / linear-interpolated quantile of a sample (0 when empty).
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// Reset the kernel's peak-RSS high-water mark (false when not permitted).
bool resetPeakRss();
/// Peak resident set size of this process since the last reset, in MB.
double peakRssMb();
/// CPU seconds (user + system) of every child process waited for so far.
double childCpuSeconds();

/// One reported figure: value, unit and the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 1;
};

/// Insertion-ordered metric set; set() on an existing name overwrites.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 1);
  const std::vector<std::pair<std::string, Metric>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

/// In-memory span recorder for the traced run.  Spans nest by scope on the
/// calling thread (the benchmark drives every layer call from its main
/// thread); each carries the id of the workload run it belongs to.  Written
/// once, at the end, by writeJson().
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t run = 0;
    int parent = -1;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
  };

  /// RAII span; a null tracer makes it a no-op, so call sites are the same
  /// in the traced and untraced batches.
  class Scope {
   public:
    Scope(Tracer* t, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_ = -1;
  };

  /// Start a new workload run id (a traced batch or a probe).
  void newRun(const std::string& label);
  /// Keep a JSON document (an obs::Registry snapshot) for the spans file.
  void attach(const std::string& key, std::string json);

  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double totalSec = 0.0;
    double selfSec = 0.0;  ///< total minus the time child spans cover
  };
  /// Per-name totals, in first-seen order.
  std::vector<SelfTime> selfTimes() const;
  std::size_t size() const { return spans_.size(); }

  /// {"runs": [...], "spans": [...], "self_times": [...], "attached": {...}}
  /// plus `stamp` (a JSON object body without braces) under "provenance".
  bool writeJson(const std::string& path, const std::string& stamp) const;

 private:
  int begin(std::string name);
  void end(int id);

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::string> runs_;
  std::vector<std::pair<std::string, std::string>> attached_;
};

/// Everything a workload may read: the seed it derives its inputs from and
/// the resources the run is allowed.
struct Ctx {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir;    ///< scratch directory inside the checkout
  std::string confailBin; ///< the `confail` multi-tool (serve workers)
  unsigned hardware = 1;  ///< std::thread::hardware_concurrency()
  std::size_t workers = 1;  ///< min(4, hardware): explorer workers, serve pool
};

/// Outcome of one timed batch.
struct RepOutcome {
  double seconds = 0.0;
  std::uint64_t attempted = 0;  ///< operations the batch attempted
  std::uint64_t failed = 0;     ///< of which failed or were refused
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;

  /// Build the inputs in memory from ctx.seed, with their known answer.
  /// Called several times per run and timed (setup_s); must leave the
  /// workload ready for prepareRep().
  virtual void setup(const Ctx& ctx) = 0;
  /// Once, after the timed set-ups and before the timed phase: put the
  /// inputs where the batches read them (the JSONL file on disk).  Not part
  /// of setup_s, since disk writeback makes its time swing from run to run.
  virtual void stage(const Ctx&) {}
  /// Per-batch preparation outside every timed phase (writing the input
  /// file, a fresh spool).
  virtual void prepareRep(const Ctx&) {}
  /// One timed batch.  `tr` is null in untraced batches; a traced batch
  /// records spans and attaches an obs::Registry to the layers it calls.
  virtual RepOutcome rep(Tracer* tr) = 0;
  /// "" when the last batch's output equals the known answer.
  virtual std::string check() const = 0;
  /// Apply the workload's prescribed corruption to a copy of the last
  /// output and return check()'s verdict on the copy (must be non-empty).
  virtual std::string checkCorrupted() const = 0;
  /// Workload-specific end-to-end figures, printed in the report, from the
  /// median batch time over `reps` batches.
  virtual void reportExtras(double verdictSeconds, std::size_t reps,
                            Metrics& out) const = 0;
  /// Per-layer metrics of the layers this workload calls (traced run
  /// only): read from the last traced batch (spans, registry, outputs) and
  /// from isolation probes on the workload's own inputs.  `plainSec` is the
  /// median untraced batch time.
  virtual void layers(const Ctx& ctx, Tracer& tr, double plainSec,
                      Metrics& out) = 0;
  /// The same per-layer metrics from a small fixed reference instance of
  /// this workload, run in the traced run of every other workload so each
  /// traced run reports every per-layer metric.
  virtual void reference(const Ctx& ctx, Tracer& tr, Metrics& out) = 0;
  /// peak_rss_mb: the peak over the timed phase of the memory the batches
  /// held resident, in MB.  Called right after the timed phase.
  virtual double timedPeakRssMb() const { return peakRssMb(); }
  /// Provenance lines ("key": value JSON members) about resources used.
  virtual std::string provenance() const { return ""; }
};

std::unique_ptr<Workload> makeExploreWorkload();
std::unique_ptr<Workload> makeIngestWorkload();
std::unique_ptr<Workload> makeServeWorkload();

/// The gen/petri layers have no workload of their own: a fixed probe over
/// a few generated programs, each differential oracle alone.
void genProbe(const Ctx& ctx, Tracer& tr, Metrics& out);

/// JSON string literal (quotes included) for ASCII-safe text.
std::string jsonString(const std::string& s);

}  // namespace cfbench
