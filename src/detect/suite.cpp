#include "confail/detect/suite.hpp"

namespace confail::detect {

void DetectorSuite::run(StreamingSuite& battery,
                        const events::Trace& trace) const {
  battery.setMetrics(metrics_);
  for (const events::Event& e : trace.events()) battery.feed(e);
  battery.finish(TraceNames(trace));
}

std::vector<Finding> DetectorSuite::analyze(const events::Trace& trace) const {
  StreamingSuite battery(opts_);
  run(battery, trace);
  return battery.findings();
}

std::vector<StreamingSuite::Report> DetectorSuite::analyzeEach(
    const events::Trace& trace) const {
  StreamingSuite battery(opts_);
  run(battery, trace);
  return battery.reports();
}

std::vector<const char*> DetectorSuite::detectorNames() const {
  return StreamingSuite(opts_).coreNames();
}

}  // namespace confail::detect
