#include "confail/serve/client.hpp"

#include <algorithm>

#include "confail/obs/json.hpp"

namespace confail::serve {

std::string submitJob(const std::string& root, const inject::JobSpec& spec) {
  return CampaignStore(root).submit(spec);
}

bool jobStatus(const std::string& root, const std::string& id,
               JobState& out) {
  return CampaignStore(root).status(id, out);
}

std::vector<JobState> allJobStatus(const std::string& root) {
  const CampaignStore store(root);
  std::vector<std::string> ids = store.scanQueue();
  for (const std::string& id : store.listJobs()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<JobState> out;
  for (const std::string& id : ids) {
    JobState st;
    if (jobStatus(root, id, st)) out.push_back(std::move(st));
  }
  return out;
}

std::string statusToJson(const std::vector<JobState>& states) {
  obs::JsonWriter w;
  w.beginObject();
  w.field("schema", "confail.jobstates.v1");
  w.key("jobs");
  w.beginArray();
  for (const JobState& st : states) {
    w.beginObject();
    w.field("id", st.id);
    w.field("name", st.name);
    w.field("status", st.status);
    w.field("shards_total", st.shardsTotal);
    w.field("shards_done", st.shardsDone);
    w.field("shards_failed", st.shardsFailed);
    w.field("findings", st.findings);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return w.str();
}

bool jobResults(const std::string& root, const std::string& id,
                JobResults& out) {
  const CampaignStore store(root);
  JobState st;
  if (!jobStatus(root, id, st)) return false;
  out = JobResults{};
  out.complete =
      CampaignStore::readFile(store.findingsPath(id), out.findingsJson) &&
      CampaignStore::readFile(store.sarifPath(id), out.sarif) &&
      CampaignStore::readFile(store.matrixPath(id), out.matrixJson);
  return true;
}

bool requestDrain(const std::string& root) {
  return CampaignStore(root).requestDrain();
}

}  // namespace confail::serve
