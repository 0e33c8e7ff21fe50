#include "engine/topology.h"

#include <algorithm>
#include <queue>

namespace elasticutor {

OperatorId TopologyBuilder::AddOperator(OperatorSpec spec) {
  topology_.operators_.push_back(std::move(spec));
  topology_.downstream_.emplace_back();
  topology_.upstream_.emplace_back();
  return static_cast<OperatorId>(topology_.operators_.size() - 1);
}

Status TopologyBuilder::Connect(OperatorId from, OperatorId to) {
  int n = topology_.num_operators();
  if (from < 0 || from >= n || to < 0 || to >= n) {
    return Status::InvalidArgument("operator id out of range");
  }
  if (from == to) {
    return Status::InvalidArgument("self-loop edges are not allowed");
  }
  auto& down = topology_.downstream_[from];
  if (std::find(down.begin(), down.end(), to) != down.end()) {
    return Status::AlreadyExists("duplicate edge");
  }
  down.push_back(to);
  topology_.upstream_[to].push_back(from);
  return Status::OK();
}

Result<Topology> TopologyBuilder::Build() {
  const int n = topology_.num_operators();
  if (n == 0) return Status::InvalidArgument("empty topology");

  for (OperatorId op = 0; op < n; ++op) {
    const OperatorSpec& spec = topology_.operators_[op];
    if (spec.num_executors <= 0 || spec.shards_per_executor <= 0) {
      return Status::InvalidArgument("operator '" + spec.name +
                                     "': parallelism must be positive");
    }
    if (spec.is_source) {
      if (!topology_.upstream_[op].empty()) {
        return Status::InvalidArgument("source '" + spec.name +
                                       "' has upstream edges");
      }
      if (!spec.source.factory) {
        return Status::InvalidArgument("source '" + spec.name +
                                       "' has no tuple factory");
      }
      if (spec.source.mode == SourceSpec::Mode::kTrace &&
          !spec.source.rate_fn) {
        return Status::InvalidArgument("trace source '" + spec.name +
                                       "' has no rate function");
      }
    } else if (topology_.upstream_[op].empty()) {
      return Status::InvalidArgument("operator '" + spec.name +
                                     "' is unreachable (no inputs)");
    }
  }

  // Kahn's algorithm: topological order + cycle detection.
  std::vector<int> indegree(n, 0);
  for (OperatorId op = 0; op < n; ++op) {
    indegree[op] = static_cast<int>(topology_.upstream_[op].size());
  }
  std::queue<OperatorId> ready;
  for (OperatorId op = 0; op < n; ++op) {
    if (indegree[op] == 0) ready.push(op);
  }
  topology_.topo_order_.clear();
  while (!ready.empty()) {
    OperatorId op = ready.front();
    ready.pop();
    topology_.topo_order_.push_back(op);
    for (OperatorId next : topology_.downstream_[op]) {
      if (--indegree[next] == 0) ready.push(next);
    }
  }
  if (static_cast<int>(topology_.topo_order_.size()) != n) {
    return Status::InvalidArgument("topology contains a cycle");
  }
  return topology_;
}

}  // namespace elasticutor
