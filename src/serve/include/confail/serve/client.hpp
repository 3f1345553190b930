// Client: what `confail submit|status|results|drain` call.
//
// Clients share the daemon's CampaignStore — submitting is an atomic file
// drop into queue/, status is derived from the job's files
// (CampaignStore::status), results are reads of the merged documents.  No
// daemon needs to be running for submit/drain (the spool holds the work);
// status and results simply report what the store contains so far.
#pragma once

#include <string>
#include <vector>

#include "confail/serve/store.hpp"

namespace confail::serve {

/// Enqueue a spec; returns the job id ("" on I/O failure).  Idempotent.
std::string submitJob(const std::string& root, const inject::JobSpec& spec);

/// State of one job (CampaignStore::status).  False when the store has no
/// trace of it.
bool jobStatus(const std::string& root, const std::string& id, JobState& out);

/// States of every job the store knows about, queued ones included.
std::vector<JobState> allJobStatus(const std::string& root);

/// Render a states list as a confail.jobstates.v1 document.
std::string statusToJson(const std::vector<JobState>& states);

struct JobResults {
  bool complete = false;     ///< merged documents are present
  std::string findingsJson;  ///< confail.findings.v1
  std::string sarif;
  std::string matrixJson;
};

/// Fetch a completed job's merged documents.  False when the job is
/// unknown; a known-but-unfinished job returns true with complete=false.
bool jobResults(const std::string& root, const std::string& id,
                JobResults& out);

/// Ask the daemon to finish in-flight jobs and exit.
bool requestDrain(const std::string& root);

}  // namespace confail::serve
