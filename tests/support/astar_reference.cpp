#include "support/astar_reference.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <vector>

#include "common/check.hpp"

namespace esg::core {

namespace {

struct Node {
  double f = 0.0;       // g + h (per-job cost)
  Usd g = 0.0;          // accumulated per-job cost
  TimeMs latency = 0.0; // accumulated latency
  std::size_t stage = 0;
  std::vector<std::size_t> picks;  // entry index per completed stage

  bool operator>(const Node& other) const { return f > other.f; }
};

}  // namespace

SearchResult astar_reference(std::span<const StageInput> stages,
                             TimeMs g_slo_ms) {
  if (stages.empty()) throw std::invalid_argument("astar_reference: no stages");
  const std::size_t n = stages.size();

  std::vector<std::vector<profile::ProfileEntry>> lists(n);
  for (std::size_t i = 0; i < n; ++i) {
    check(stages[i].table != nullptr, "astar_reference: null table");
    if (stages[i].batch_cap == 0) {
      const auto span = stages[i].table->entries();
      lists[i].assign(span.begin(), span.end());
    } else {
      lists[i] = stages[i].table->entries_with_batch_at_most(stages[i].batch_cap);
    }
    if (lists[i].empty()) {
      throw std::invalid_argument("astar_reference: empty stage");
    }
  }

  // Admissible heuristics over the remaining stages.
  std::vector<Usd> suffix_min_cost(n + 1, 0.0);
  std::vector<TimeMs> suffix_min_lat(n + 1, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    Usd min_cost = lists[i].front().per_job_cost;
    TimeMs min_lat = lists[i].front().latency_ms;
    for (const auto& e : lists[i]) {
      min_cost = std::min(min_cost, e.per_job_cost);
      min_lat = std::min(min_lat, e.latency_ms);
    }
    suffix_min_cost[i] = min_cost + suffix_min_cost[i + 1];
    suffix_min_lat[i] = min_lat + suffix_min_lat[i + 1];
  }

  SearchResult result;
  std::priority_queue<Node, std::vector<Node>, std::greater<>> open;
  open.push(Node{suffix_min_cost[0], 0.0, 0.0, 0, {}});

  while (!open.empty()) {
    Node cur = open.top();
    open.pop();
    ++result.stats.nodes_expanded;

    if (cur.stage == n) {
      // First complete node popped = optimal (admissible heuristic).
      SearchPath path;
      path.entries.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        path.entries.push_back(lists[i][cur.picks[i]]);
      }
      path.total_latency_ms = cur.latency;
      path.total_per_job_cost = cur.g;
      result.config_pq.push_back(std::move(path));
      result.met_slo = true;
      return result;
    }

    for (std::size_t idx = 0; idx < lists[cur.stage].size(); ++idx) {
      const auto& e = lists[cur.stage][idx];
      const TimeMs latency = cur.latency + e.latency_ms;
      // Feasibility pruning with the admissible latency bound.
      if (latency + suffix_min_lat[cur.stage + 1] >= g_slo_ms) continue;
      Node next;
      next.g = cur.g + e.per_job_cost;
      next.latency = latency;
      next.stage = cur.stage + 1;
      next.f = next.g + suffix_min_cost[next.stage];
      next.picks = cur.picks;
      next.picks.push_back(idx);
      open.push(std::move(next));
    }
  }

  result.met_slo = false;  // nothing feasible
  return result;
}

}  // namespace esg::core
