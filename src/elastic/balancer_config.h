// Intra-executor load-balancer configuration (§3.1).
#pragma once

#include "common/units.h"
#include "sim/time.h"

namespace elasticutor {

struct BalancerConfig {
  /// Master switch (benches probing manual shard placement disable it).
  bool enabled = true;

  /// Imbalance threshold θ: rebalancing runs until δ = max task load /
  /// average task load is at or below this. Paper default 1.2 (max 20%
  /// deviation from the average).
  double theta = 1.2;

  /// How often each elastic executor evaluates its task balance.
  SimDuration interval_ns = Millis(250);
};

}  // namespace elasticutor
