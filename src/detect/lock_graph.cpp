#include "confail/detect/lock_graph.hpp"

#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <vector>

namespace confail::detect {

using events::Event;
using events::EventKind;
using events::MonitorId;
using events::ThreadId;

void LockOrderCore::feed(const Event& e, std::vector<Finding>&) {
  switch (e.kind) {
    case EventKind::LockAcquire: {
      auto& stack = held_[e.thread];
      for (MonitorId outer : stack) {
        if (outer != e.monitor) {
          edges_.emplace(std::make_pair(outer, e.monitor),
                         std::make_pair(e.thread, e.seq));
        }
      }
      stack.push_back(e.monitor);
      break;
    }
    case EventKind::LockRelease:
    case EventKind::WaitBegin: {
      auto& stack = held_[e.thread];
      for (std::size_t i = stack.size(); i-- > 0;) {
        if (stack[i] == e.monitor) {
          stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      break;
    }
    default:
      break;
  }
}

void LockOrderCore::finish(const NameSource& names,
                           std::vector<Finding>& out) {
  // Cycle detection over the collected edges (iterative DFS, coloring).
  std::map<MonitorId, std::vector<MonitorId>> adj;
  std::set<MonitorId> nodes;
  for (const auto& [edge, witness] : edges_) {
    adj[edge.first].push_back(edge.second);
    nodes.insert(edge.first);
    nodes.insert(edge.second);
  }

  std::map<MonitorId, int> color;  // 0 white, 1 grey, 2 black
  std::vector<MonitorId> path;
  bool cycleFound = false;
  std::vector<MonitorId> cycle;

  std::function<void(MonitorId)> dfs = [&](MonitorId u) {
    if (cycleFound) return;
    color[u] = 1;
    path.push_back(u);
    for (MonitorId v : adj[u]) {
      if (cycleFound) break;
      if (color[v] == 1) {
        // Extract the cycle from the path.
        cycle.clear();
        bool in = false;
        for (MonitorId p : path) {
          if (p == v) in = true;
          if (in) cycle.push_back(p);
        }
        cycle.push_back(v);
        cycleFound = true;
        break;
      }
      if (color[v] == 0) dfs(v);
    }
    path.pop_back();
    color[u] = 2;
  };

  for (MonitorId n : nodes) {
    if (color[n] == 0 && !cycleFound) dfs(n);
  }

  if (cycleFound) {
    std::ostringstream os;
    os << "inconsistent lock acquisition order: ";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i) os << " -> ";
      os << names.monitorName(cycle[i]);
    }
    Finding f;
    f.kind = FindingKind::DeadlockCycle;
    f.message = os.str();
    f.monitor = cycle.front();
    auto w = edges_.find(std::make_pair(cycle[0], cycle[1]));
    if (w != edges_.end()) {
      f.thread = w->second.first;
      f.seq = w->second.second;
    }
    out.push_back(std::move(f));
  }
}

}  // namespace confail::detect
