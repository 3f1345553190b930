// Statistics, peak-RSS probes, the metric set and the span recorder.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace cfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

bool resetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  return static_cast<bool>(f.flush());
}

double peakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double childCpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit, std::uint64_t samples) {
  for (auto& [n, m] : items_) {
    if (n == name) {
      m = Metric{value, unit, samples};
      return;
    }
  }
  items_.emplace_back(name, Metric{value, unit, samples});
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

Tracer::Scope::Scope(Tracer* t, std::string name) : t_(t) {
  if (t_ != nullptr) id_ = t_->begin(std::move(name));
}

Tracer::Scope::~Scope() {
  if (t_ != nullptr) t_->end(id_);
}

void Tracer::newRun(const std::string& label) { runs_.push_back(label); }

void Tracer::attach(const std::string& key, std::string json) {
  attached_.emplace_back(key, std::move(json));
}

int Tracer::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.run = runs_.empty() ? 0 : runs_.size() - 1;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start = secondsSince(t0_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = secondsSince(t0_);
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<Tracer::SelfTime> Tracer::selfTimes() const {
  // Children are recorded strictly inside their parent's interval on the
  // same thread, so a span's self time is its duration minus the summed
  // durations of its direct children.
  std::vector<double> childSec(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      childSec[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::vector<SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto it = std::find_if(out.begin(), out.end(), [&](const SelfTime& st) {
      return st.name == s.name;
    });
    if (it == out.end()) {
      out.push_back(SelfTime{s.name, 0, 0.0, 0.0});
      it = out.end() - 1;
    }
    ++it->count;
    it->totalSec += s.end - s.start;
    it->selfSec += (s.end - s.start) - childSec[i];
  }
  return out;
}

bool Tracer::writeJson(const std::string& path,
                       const std::string& stamp) const {
  std::ostringstream os;
  os.precision(9);
  os << "{\n  \"schema\": \"cfbench.spans.v1\",\n  \"provenance\": {" << stamp
     << "},\n  \"runs\": [";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    os << (i ? ", " : "") << "{\"id\": " << i
       << ", \"label\": " << jsonString(runs_[i]) << "}";
  }
  os << "],\n  \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "    {\"id\": " << i << ", \"name\": " << jsonString(s.name)
       << ", \"run\": " << s.run << ", \"parent\": " << s.parent
       << ", \"start_s\": " << s.start << ", \"end_s\": " << s.end << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"self_times\": [\n";
  const std::vector<SelfTime> st = selfTimes();
  for (std::size_t i = 0; i < st.size(); ++i) {
    os << "    {\"name\": " << jsonString(st[i].name)
       << ", \"count\": " << st[i].count << ", \"total_s\": " << st[i].totalSec
       << ", \"self_s\": " << st[i].selfSec << "}"
       << (i + 1 < st.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"attached\": {";
  for (std::size_t i = 0; i < attached_.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << jsonString(attached_[i].first) << ": "
       << attached_[i].second;
  }
  os << "\n  }\n}\n";
  std::ofstream f(path);
  f << os.str();
  return static_cast<bool>(f.flush());
}

}  // namespace cfbench
