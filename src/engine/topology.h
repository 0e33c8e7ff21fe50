// Topology: a DAG of operators. Built once via TopologyBuilder and then
// shared (immutable) by the engine.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/ids.h"
#include "engine/operator.h"

namespace elasticutor {

class Topology {
 public:
  int num_operators() const { return static_cast<int>(operators_.size()); }
  const OperatorSpec& spec(OperatorId op) const { return operators_.at(op); }
  OperatorSpec& mutable_spec(OperatorId op) { return operators_.at(op); }

  /// Operators fed by `op`.
  const std::vector<OperatorId>& downstream(OperatorId op) const {
    return downstream_.at(op);
  }
  /// Operators feeding `op`.
  const std::vector<OperatorId>& upstream(OperatorId op) const {
    return upstream_.at(op);
  }
  bool is_sink(OperatorId op) const { return downstream_.at(op).empty(); }

  /// Operator ids in topological order (sources first).
  const std::vector<OperatorId>& topo_order() const { return topo_order_; }

 private:
  friend class TopologyBuilder;
  std::vector<OperatorSpec> operators_;
  std::vector<std::vector<OperatorId>> downstream_;
  std::vector<std::vector<OperatorId>> upstream_;
  std::vector<OperatorId> topo_order_;
};

class TopologyBuilder {
 public:
  /// Adds an operator; returns its id.
  OperatorId AddOperator(OperatorSpec spec);

  /// Adds a key-partitioned edge from `from` to `to`.
  Status Connect(OperatorId from, OperatorId to);

  /// Validates (DAG, sources have no inputs, non-sources have inputs,
  /// every source has a factory) and returns the immutable topology.
  Result<Topology> Build();

 private:
  Topology topology_;
};

}  // namespace elasticutor
