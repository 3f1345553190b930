// `confail ingest`: online analysis of live event streams.
//
// Reads JSONL (obs::toJsonl) or Chrome trace_event JSON from a file, a
// pipe, or stdin ('-'), pushes the decoded events through the bounded
// SPSC ring into the incremental detector battery, and reports findings
// through the same ReportSink the offline battery uses — so
//
//   confail explore --scenario S --jsonl-out - | confail ingest -
//
// produces the same findings documents `confail trace detect` would on
// the recorded trace.  --follow tails a file that is still being
// appended to (a component under test writing its event log).
//
// Exit status follows cli.hpp: 0 on a clean ingest with no findings,
// 1 when the detectors produced findings, 2 usage, 3 internal.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "cli.hpp"
#include "confail/detect/report_sink.hpp"
#include "confail/ingest/pipeline.hpp"
#include "confail/obs/json.hpp"
#include "confail/obs/metrics.hpp"

namespace confail::cli {

namespace ingest = confail::ingest;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <file|-> [--from jsonl|chrome] [--follow] "
               "[--idle-stop-ms N]\n"
               "               [--ring-capacity N] [--lossy] "
               "[--hb-max-vars N]\n"
               "               [--sarif-out FILE] [--json-out FILE] "
               "[--metrics-out FILE] [--json]\n\n"
               "Streams events through the incremental detector battery "
               "(same detectors,\nsame finding order as `%s trace detect` "
               "on the recorded trace).\n\n"
               "  --from jsonl     one JSON object per line, as written by "
               "`explore --jsonl-out`\n"
               "                   or a serve job's events.jsonl (default; "
               "lossless)\n"
               "  --from chrome    a Chrome trace_event document "
               "(best-effort decode)\n"
               "  --follow         keep reading past EOF (tail a growing "
               "file); stops after\n"
               "                   --idle-stop-ms with no new bytes "
               "(default 1000)\n"
               "  --ring-capacity  event ring size (default 65536; "
               "rounded to a power of 2)\n"
               "  --lossy          drop events on ring overflow instead of "
               "backpressuring\n"
               "  --hb-max-vars    bound the happens-before core's variable "
               "history (0 = exact)\n"
               "  --sarif-out      write findings as SARIF 2.1.0\n"
               "  --json-out       write findings as confail.findings.v1 "
               "JSON\n"
               "  --metrics-out    write an obs metrics snapshot (also "
               "enables the per-core\n"
               "                   feed-latency percentiles in the "
               "summary)\n"
               "  --json           print the ingest summary as JSON\n",
               prog, prog);
  return 2;
}

void printHuman(const std::string& source, const ingest::IngestStats& st,
                const ingest::IngestPipeline& pipe,
                const detect::ReportSink& sink, const obs::Registry* metrics,
                std::size_t ringCapacity) {
  std::printf("source:         %s\n", source.c_str());
  std::printf("events:         %llu decoded, %llu analyzed (%llu lines, "
              "%llu bytes)\n",
              static_cast<unsigned long long>(st.eventsDecoded),
              static_cast<unsigned long long>(st.eventsAnalyzed),
              static_cast<unsigned long long>(st.lines),
              static_cast<unsigned long long>(st.bytes));
  std::printf("throughput:     %.0f events/sec (%.3f s)\n", st.eventsPerSec,
              st.elapsedSec);
  std::printf("ring:           capacity %zu, drops %llu\n", ringCapacity,
              static_cast<unsigned long long>(st.ringDrops));
  if (st.malformed > 0 || st.truncated > 0 || st.chromeUnmapped > 0) {
    std::printf("skipped:        %llu malformed, %llu truncated, "
                "%llu unmapped\n",
                static_cast<unsigned long long>(st.malformed),
                static_cast<unsigned long long>(st.truncated),
                static_cast<unsigned long long>(st.chromeUnmapped));
  }
  if (st.hbEvictions > 0) {
    std::printf("hb evictions:   %llu (bounded history; findings may "
                "under-approximate)\n",
                static_cast<unsigned long long>(st.hbEvictions));
  }
  if (metrics != nullptr) {
    // Percentile digests instead of raw bucket dumps: one line per
    // non-empty feed-latency histogram.
    const obs::Snapshot snap = metrics->snapshot();
    for (const auto& h : snap.histograms) {
      if (h.count == 0) continue;
      std::printf("latency:        %s %s\n", h.name.c_str(),
                  h.percentileLine().c_str());
    }
  }
  std::printf("findings:       %zu\n", sink.size());
  const detect::NameSource& names = pipe.names();
  for (const auto& entry : sink.entries()) {
    std::string where;
    if (entry.finding.thread != events::kNoThread) {
      where += " thread=" + names.threadName(entry.finding.thread);
    }
    if (entry.finding.thread2 != events::kNoThread) {
      where += " thread2=" + names.threadName(entry.finding.thread2);
    }
    if (entry.finding.monitor != events::kNoMonitor) {
      where += " monitor=" + names.monitorName(entry.finding.monitor);
    }
    if (entry.finding.var != events::kNoVar) {
      where += " var=" + names.varName(entry.finding.var);
    }
    std::printf("  [%s] %s: %s%s\n", entry.detector.c_str(),
                detect::findingKindName(entry.finding.kind),
                entry.finding.message.c_str(), where.c_str());
  }
}

void printJson(const std::string& source, const ingest::IngestStats& st,
               std::size_t ringCapacity) {
  obs::JsonWriter w;
  w.beginObject();
  w.field("source", source);
  w.field("bytes", st.bytes);
  w.field("lines", st.lines);
  w.field("events_decoded", st.eventsDecoded);
  w.field("events_analyzed", st.eventsAnalyzed);
  w.field("ring_capacity", static_cast<std::uint64_t>(ringCapacity));
  w.field("ring_drops", st.ringDrops);
  w.field("malformed", st.malformed);
  w.field("truncated", st.truncated);
  w.field("chrome_unmapped", st.chromeUnmapped);
  w.field("hb_evictions", st.hbEvictions);
  w.field("elapsed_sec", st.elapsedSec);
  w.field("events_per_sec", st.eventsPerSec);
  w.field("findings", st.findings);
  w.endObject();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int cmdIngest(const char* prog, int argc, char** argv) {
  std::string input;
  ingest::IngestOptions opts;
  std::string sarifOut;
  std::string jsonOut;
  std::string metricsOut;
  bool json = false;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return flagValue(i, argc, argv); };
    if (arg == "--from") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      const std::string fmt = v;
      if (fmt == "jsonl") {
        opts.format = ingest::StreamFormat::Jsonl;
      } else if (fmt == "chrome") {
        opts.format = ingest::StreamFormat::Chrome;
      } else {
        std::fprintf(stderr, "%s: unknown format '%s'\n", prog, fmt.c_str());
        return usage(prog);
      }
    } else if (arg == "--follow") {
      opts.follow = true;
    } else if (arg == "--idle-stop-ms") {
      if (!parseU64(prog, "--idle-stop-ms", next(), opts.followIdleStopMs)) {
        return usage(prog);
      }
    } else if (arg == "--ring-capacity") {
      if (!parseU64(prog, "--ring-capacity", next(), opts.ringCapacity)) {
        return usage(prog);
      }
    } else if (arg == "--lossy") {
      opts.lossy = true;
    } else if (arg == "--hb-max-vars") {
      if (!parseU64(prog, "--hb-max-vars", next(),
                    opts.suite.hbMaxVarHistory)) {
        return usage(prog);
      }
    } else if (arg == "--sarif-out") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      sarifOut = v;
    } else if (arg == "--json-out") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      jsonOut = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      metricsOut = v;
    } else if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && (arg[0] != '-' || arg == "-")) {
      if (!input.empty()) {
        std::fprintf(stderr, "%s: multiple inputs ('%s', '%s')\n", prog,
                     input.c_str(), arg.c_str());
        return usage(prog);
      }
      input = arg;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", prog, arg.c_str());
      return usage(prog);
    }
  }
  if (input.empty()) return usage(prog);

  obs::Registry metrics;
  if (!metricsOut.empty()) opts.metrics = &metrics;

  std::ifstream file;
  std::istream* in = &std::cin;
  if (input != "-") {
    file.open(input, std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "%s: cannot open %s\n", prog, input.c_str());
      return 3;
    }
    in = &file;
  }
  const std::string source = input == "-" ? "stdin" : input;

  ingest::IngestPipeline pipe(opts);
  detect::ReportSink sink;
  sink.setSource(source);
  ingest::IngestStats st;
  try {
    st = pipe.run(*in, sink);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    return 3;
  }

  if (!metricsOut.empty() && !metrics.snapshot().writeFile(metricsOut)) {
    std::fprintf(stderr, "%s: cannot write %s\n", prog, metricsOut.c_str());
    return 3;
  }
  if (!sarifOut.empty() && !sink.writeSarifFile(pipe.names(), sarifOut)) {
    std::fprintf(stderr, "%s: cannot write %s\n", prog, sarifOut.c_str());
    return 3;
  }
  if (!jsonOut.empty() && !sink.writeJsonFile(pipe.names(), jsonOut)) {
    std::fprintf(stderr, "%s: cannot write %s\n", prog, jsonOut.c_str());
    return 3;
  }

  if (json) {
    printJson(source, st, opts.ringCapacity);
  } else {
    printHuman(source, st, pipe, sink,
               metricsOut.empty() ? nullptr : &metrics, opts.ringCapacity);
    std::printf("INGEST DONE\n");
  }
  return sink.empty() ? 0 : 1;
}

}  // namespace confail::cli
