// `confail trace`: offline analysis of recorded JSONL traces.
//
//   trace render   <file>                pretty-print the events
//   trace stats    <file>                event/thread/monitor counts
//   trace validate <file> [mon]          replay against the Figure 1 net
//   trace detect   <file> [--metrics-out <file>]
//                                        detector battery + Table 1 classes
//   trace chrome   <file> <out>          export as Chrome trace_event JSON
//   trace selftest                       generate, round-trip, run all modes
//
// A trace file is the JSONL every recording verb writes (obs::toJsonl:
// `explore --jsonl-out`, a shard's events, the serve daemon's
// events.jsonl), loaded whole through ingest::loadJsonlTrace.  Malformed
// and truncated lines are skipped and counted on stderr.
//
// Exit status follows cli.hpp: `detect` and `validate` return 1 when they
// have findings/violations, 0 when clean; `selftest` returns 0 when the
// machinery checks out; 2 usage, 3 internal.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "cli.hpp"
#include "confail/detect/report_sink.hpp"
#include "confail/detect/suite.hpp"
#include "confail/events/trace.hpp"
#include "confail/ingest/decode.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/monitor/shared_var.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/obs/trace_export.hpp"
#include "confail/petri/trace_validator.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/taxonomy/classifier.hpp"

namespace confail::cli {

namespace ev = confail::events;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s render|stats|validate <file>\n"
               "       %s detect <file> [--metrics-out <file>] "
               "[--sarif-out <file>] [--json-out <file>]\n"
               "       %s chrome <file> <out-file>\n"
               "       %s selftest\n\n"
               "<file> is a JSONL trace (`explore --jsonl-out`, a serve "
               "job's events.jsonl),\nor '-' to read it from stdin, so "
               "traces pipe straight from capture to\nanalysis.  For *live* "
               "streams use `confail ingest` instead (same detector\n"
               "battery, incremental).\n",
               prog, prog, prog, prog);
  return 2;
}

ev::Trace load(const char* prog, const std::string& path) {
  std::ifstream file;
  if (path != "-") {
    file.open(path, std::ios::binary);
    if (!file) {
      throw confail::UsageError("cannot open trace file: " + path);
    }
  }
  ev::Trace trace;
  const auto st =
      confail::ingest::loadJsonlTrace(path == "-" ? std::cin : file, trace);
  if (st.malformed > 0 || st.truncated > 0) {
    std::fprintf(stderr, "%s: skipped %llu malformed, %llu truncated lines\n",
                 prog, static_cast<unsigned long long>(st.malformed),
                 static_cast<unsigned long long>(st.truncated));
  }
  return trace;
}

int doRender(const ev::Trace& trace) {
  trace.render(
      [](const std::string& line) { std::printf("%s\n", line.c_str()); });
  return 0;
}

int doStats(const ev::Trace& trace) {
  std::map<ev::EventKind, std::size_t> byKind;
  std::set<ev::ThreadId> threads;
  std::set<ev::MonitorId> monitors;
  std::set<ev::VarId> vars;
  for (const ev::Event& e : trace.events()) {
    ++byKind[e.kind];
    if (e.thread != ev::kNoThread) threads.insert(e.thread);
    if (e.monitor != ev::kNoMonitor) monitors.insert(e.monitor);
    if (e.kind == ev::EventKind::Read || e.kind == ev::EventKind::Write) {
      vars.insert(static_cast<ev::VarId>(e.aux));
    }
  }
  std::printf("events: %zu  threads: %zu  monitors: %zu  variables: %zu\n",
              trace.size(), threads.size(), monitors.size(), vars.size());
  for (const auto& [kind, count] : byKind) {
    std::printf("  %-14s %zu\n", ev::kindName(kind), count);
  }
  return 0;
}

int doValidate(const ev::Trace& trace, std::optional<ev::MonitorId> only) {
  std::set<ev::MonitorId> monitors;
  if (only) {
    monitors.insert(*only);
  } else {
    for (const ev::Event& e : trace.events()) {
      if (e.monitor != ev::kNoMonitor) monitors.insert(e.monitor);
    }
  }
  int bad = 0;
  for (ev::MonitorId m : monitors) {
    auto v = confail::petri::validateTraceAgainstModel(trace, m);
    std::printf("monitor %s: %s (%zu transitions)\n",
                trace.monitorName(m).c_str(),
                v.ok ? "legal firing sequence" : v.message.c_str(),
                v.eventsChecked);
    bad += v.ok ? 0 : 1;
  }
  if (monitors.empty()) std::printf("no monitor events in trace\n");
  return bad == 0 ? 0 : 1;
}

int doDetect(const char* prog, const ev::Trace& trace,
             const std::string& source, const std::string& metricsOut = "",
             const std::string& sarifOut = "",
             const std::string& jsonOut = "") {
  confail::obs::Registry metrics;
  confail::detect::DetectorSuite suite;
  suite.setMetrics(&metrics);
  // Route through the same ReportSink the streaming pipeline uses, so the
  // offline and online documents are byte-comparable for the same events.
  confail::detect::ReportSink sink;
  sink.setSource(source);
  std::vector<confail::detect::Finding> findings;
  for (auto& report : suite.analyzeEach(trace)) {
    sink.addAll(report.detector, report.findings);
    for (auto& f : report.findings) findings.push_back(f);
  }
  if (!metricsOut.empty() && !metrics.snapshot().writeFile(metricsOut)) {
    std::fprintf(stderr, "%s: cannot write %s\n", prog, metricsOut.c_str());
    return 3;
  }
  const confail::detect::TraceNames names(trace);
  if (!sarifOut.empty() && !sink.writeSarifFile(names, sarifOut)) {
    std::fprintf(stderr, "%s: cannot write %s\n", prog, sarifOut.c_str());
    return 3;
  }
  if (!jsonOut.empty() && !sink.writeJsonFile(names, jsonOut)) {
    std::fprintf(stderr, "%s: cannot write %s\n", prog, jsonOut.c_str());
    return 3;
  }
  if (findings.empty()) {
    std::printf("no findings\n");
    return 0;
  }
  confail::taxonomy::FailureReport report;
  confail::taxonomy::Classifier::addFindings(report, findings, trace);
  for (const auto& f : findings) {
    std::printf("%s\n", f.describe(trace).c_str());
  }
  std::printf("\nclassified per Table 1:\n%s", report.describe().c_str());
  return 1;
}

int doChrome(const char* prog, const ev::Trace& trace,
             const std::string& outPath) {
  if (!confail::obs::writeChromeTraceFile(trace, outPath)) {
    std::fprintf(stderr, "%s: cannot write %s\n", prog, outPath.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu events)\n", outPath.c_str(), trace.size());
  return 0;
}

int doSelftest(const char* prog) {
  // Build a demo trace with a seeded fault, round-trip it through JSONL
  // and the loader, and run every command over the copy.
  ev::Trace trace;
  confail::sched::RoundRobinStrategy strategy;
  confail::sched::VirtualScheduler s(strategy);
  confail::monitor::Runtime rt(trace, s, 1);
  confail::monitor::Monitor m(rt, "demo");
  confail::monitor::SharedVar<int> x(rt, "x", 0);
  rt.spawn("locked", [&] {
    confail::monitor::Synchronized sync(m);
    x.set(x.get() + 1);
  });
  rt.spawn("racy", [&] { x.set(x.get() + 1); });
  auto run = s.run();
  std::printf("demo run: %s, %zu events\n",
              confail::sched::outcomeName(run.outcome), trace.size());

  const std::string jsonl = confail::obs::toJsonl(trace);
  std::istringstream in(jsonl);
  ev::Trace copy;
  const auto st = confail::ingest::loadJsonlTrace(in, copy);
  if (copy.events() != trace.events() || st.malformed + st.truncated > 0) {
    std::printf("JSONL round-trip FAILED\n");
    return 1;
  }
  std::printf("-- stats --\n");
  doStats(copy);
  std::printf("-- validate --\n");
  doValidate(copy, std::nullopt);
  std::printf("-- detect --\n");
  doDetect(prog, copy, "selftest");
  std::printf("-- export --\n");
  const std::string chrome = confail::obs::toChromeTrace(copy);
  if (chrome.find("\"traceEvents\"") == std::string::npos ||
      jsonl.find("\"kind\"") == std::string::npos) {
    std::printf("exporters FAILED\n");
    return 1;
  }
  std::printf("chrome export: %zu bytes, jsonl export: %zu bytes\n",
              chrome.size(), jsonl.size());
  std::printf("SELFTEST OK\n");
  return 0;
}

}  // namespace

int cmdTrace(const char* prog, int argc, char** argv) {
  if (argc < 1) return usage(prog);
  const std::string cmd = argv[0];
  try {
    if (cmd == "selftest") return doSelftest(prog);
    const bool known = cmd == "render" || cmd == "stats" ||
                       cmd == "validate" || cmd == "detect" || cmd == "chrome";
    if (!known || argc < 2) return usage(prog);
    std::optional<ev::MonitorId> monitor;
    if (cmd == "validate" && argc >= 3) {
      monitor.emplace();
      if (!parseU64(prog, "monitor id", argv[2], *monitor)) return usage(prog);
    }
    const std::string path = argv[1];
    ev::Trace trace = load(prog, path);
    if (cmd == "render") return doRender(trace);
    if (cmd == "stats") return doStats(trace);
    if (cmd == "validate") return doValidate(trace, monitor);
    if (cmd == "detect") {
      std::string metricsOut;
      std::string sarifOut;
      std::string jsonOut;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* v = flagValue(i, argc, argv);
        if (v == nullptr) return usage(prog);
        if (arg == "--metrics-out") {
          metricsOut = v;
        } else if (arg == "--sarif-out") {
          sarifOut = v;
        } else if (arg == "--json-out") {
          jsonOut = v;
        } else {
          return usage(prog);
        }
      }
      return doDetect(prog, trace, path == "-" ? "stdin" : path, metricsOut,
                      sarifOut, jsonOut);
    }
    if (argc < 3) return usage(prog);
    return doChrome(prog, trace, argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    return 3;
  }
}

}  // namespace confail::cli
