// DetectorSuite: the Table 1 detector battery over a recorded trace.
//
// The offline entry point to the one battery StreamingSuite defines: each
// call builds a StreamingSuite with the suite's options, feeds it the
// trace's events and finishes it against the trace's name tables.  Findings
// are therefore in battery order and identical to what a stream of the
// same events yields.  analyzeWithCore (finding.hpp) runs a single core for
// targeted analyses.
#pragma once

#include <vector>

#include "confail/detect/finding.hpp"
#include "confail/detect/streaming_suite.hpp"

namespace confail::obs {
class Registry;
}

namespace confail::detect {

class DetectorSuite {
 public:
  using Options = StreamingSuite::Options;

  DetectorSuite() : DetectorSuite(Options()) {}
  explicit DetectorSuite(Options opts) : opts_(opts) {}

  /// Run every detector over the trace; findings in battery order.
  std::vector<Finding> analyze(const events::Trace& trace) const;

  /// Run every detector over the trace, keeping findings attributed to the
  /// detector that produced them (the injection campaign's detection matrix
  /// needs the per-detector view; analyze() flattens it).
  std::vector<StreamingSuite::Report> analyzeEach(
      const events::Trace& trace) const;

  /// Names of the detectors in the battery, in execution order.
  std::vector<const char*> detectorNames() const;

  /// Attach a metrics registry, forwarded to every battery analyze() and
  /// analyzeEach() build (see StreamingSuite::setMetrics for the metrics).
  /// Null detaches; the registry must outlive those calls.
  void setMetrics(obs::Registry* metrics) { metrics_ = metrics; }

 private:
  void run(StreamingSuite& battery, const events::Trace& trace) const;

  Options opts_;
  obs::Registry* metrics_ = nullptr;
};

}  // namespace confail::detect
