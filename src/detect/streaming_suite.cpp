#include "confail/detect/streaming_suite.hpp"

#include <string>

#include "confail/detect/hb_detector.hpp"
#include "confail/detect/lock_graph.hpp"
#include "confail/detect/lockset.hpp"
#include "confail/detect/protocol_deviation.hpp"
#include "confail/detect/release_discipline.hpp"
#include "confail/detect/starvation.hpp"
#include "confail/detect/unnecessary_sync.hpp"
#include "confail/detect/wait_notify.hpp"
#include "confail/obs/metrics.hpp"

namespace confail::detect {

namespace {
/// feed() times one event in this many per core (event 0 included), so an
/// attached registry costs two clock reads per core every 256 events, not
/// every event.  Finding counts stay exact.
constexpr std::uint64_t kFeedSampleEvery = 256;
}  // namespace

StreamingSuite::StreamingSuite(Options opts) {
  auto push = [&](std::unique_ptr<StreamCore> core) {
    slots_.push_back(Slot{std::move(core), {}});
  };
  push(std::make_unique<LocksetCore>());
  HbCore::Options hb;
  hb.maxVarHistory = opts.hbMaxVarHistory;
  auto hbCore = std::make_unique<HbCore>(hb);
  hb_ = hbCore.get();
  push(std::move(hbCore));
  push(std::make_unique<LockOrderCore>());
  push(std::make_unique<WaitNotifyCore>());
  push(std::make_unique<StarvationCore>(opts.starvationGrantThreshold));
  if (opts.includeUnnecessarySync) {
    push(std::make_unique<UnnecessarySyncCore>());
  }
  push(std::make_unique<ReleaseDisciplineCore>());
  ProtocolDeviationCore::Options pd;
  pd.flagBarging = opts.flagBarging;
  push(std::make_unique<ProtocolDeviationCore>(pd));
}

StreamingSuite::~StreamingSuite() = default;

void StreamingSuite::setMetrics(obs::Registry* metrics) {
  for (Slot& s : slots_) {
    s.feedNs = nullptr;
    s.found = nullptr;
    if (metrics == nullptr) continue;
    const std::string prefix = std::string("detect.") + s.core->name();
    s.feedNs = &metrics->histogram(prefix + ".feed_ns");
    s.found = &metrics->counter(prefix + ".findings");
  }
}

void StreamingSuite::feed(const events::Event& e) {
  const bool sampled = eventsFed_ % kFeedSampleEvery == 0;
  ++eventsFed_;
  for (Slot& s : slots_) {
    const std::size_t before = s.findings.size();
    {
      obs::ScopedTimer timer(sampled ? s.feedNs : nullptr);
      s.core->feed(e, s.findings);
    }
    if (s.findings.size() != before) emitted(s, before);
  }
}

void StreamingSuite::finish(const NameSource& names) {
  if (finished_) return;
  finished_ = true;
  for (Slot& s : slots_) {
    const std::size_t before = s.findings.size();
    s.core->finish(names, s.findings);
    if (s.findings.size() != before) emitted(s, before);
  }
}

void StreamingSuite::emitted(Slot& s, std::size_t before) {
  if (s.found != nullptr) s.found->add(s.findings.size() - before);
  if (onFinding_) {
    for (std::size_t i = before; i < s.findings.size(); ++i) {
      onFinding_(s.core->name(), s.findings[i]);
    }
  }
}

std::vector<Finding> StreamingSuite::findings() const {
  std::vector<Finding> all;
  for (const Slot& s : slots_) {
    all.insert(all.end(), s.findings.begin(), s.findings.end());
  }
  return all;
}

std::vector<StreamingSuite::Report> StreamingSuite::reports() const {
  std::vector<Report> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) {
    out.push_back(Report{s.core->name(), s.findings});
  }
  return out;
}

std::vector<const char*> StreamingSuite::coreNames() const {
  std::vector<const char*> names;
  for (const Slot& s : slots_) names.push_back(s.core->name());
  return names;
}

std::uint64_t StreamingSuite::hbEvictions() const {
  return hb_ != nullptr ? hb_->evictions() : 0;
}

}  // namespace confail::detect
