// ReportSink: the single funnel every finding-producing path reports into.
//
// The detector battery's reports — offline through DetectorSuite (trace
// detect, the injection campaign) and streaming through the ingest
// pipeline — are all appended here, attributed; the sink renders them as
//
//   * confail.findings.v1 — the project's own machine-readable JSON
//     (schema key, source label, one object per finding with ids and
//     resolved names), and
//   * SARIF 2.1.0 — the static-analysis interchange format, so findings
//     load into SARIF viewers and code-scanning UIs.  Each FindingKind
//     becomes a reporting rule; threads/monitors/variables are emitted as
//     logicalLocations.
//
// Name resolution is deferred to render time (a NameSource argument):
// during streaming ingest the name table is owned by the producer thread
// and is only safe to read after it joins, and deferring also guarantees
// the offline and online paths render byte-identical documents when fed
// the same findings and names.
//
// The sink can be capped (maxFindings) for long campaigns; adds beyond the
// cap are counted in dropped() instead of growing memory without bound.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "confail/detect/finding.hpp"

namespace confail::detect {

/// SARIF severity for a finding kind: "error" for the failure classes
/// (FF-*, hangs, races), "warning" for the efficiency classes (EF-*).
const char* sarifLevel(FindingKind k);

class ReportSink {
 public:
  /// `maxFindings` == 0 keeps everything.
  explicit ReportSink(std::size_t maxFindings = 0)
      : maxFindings_(maxFindings) {}

  /// Label recorded in the documents (scenario name, file, "stdin", ...).
  void setSource(std::string source) { source_ = std::move(source); }

  /// Append one finding attributed to `detector`.  Returns false (and
  /// counts the drop) when the cap is reached.
  bool add(const std::string& detector, const Finding& f);

  /// Append every finding of a detector report batch.
  void addAll(const std::string& detector, const std::vector<Finding>& fs);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  std::uint64_t dropped() const { return dropped_; }

  struct Entry {
    std::string detector;
    Finding finding;
  };
  const std::vector<Entry>& entries() const { return entries_; }

  /// confail.findings.v1 JSON document.
  std::string toJson(const NameSource& names) const;

  /// SARIF 2.1.0 document.
  std::string toSarif(const NameSource& names) const;

  bool writeJsonFile(const NameSource& names, const std::string& path) const;
  bool writeSarifFile(const NameSource& names, const std::string& path) const;

 private:
  std::size_t maxFindings_;
  std::uint64_t dropped_ = 0;
  std::string source_;
  std::vector<Entry> entries_;
};

}  // namespace confail::detect
