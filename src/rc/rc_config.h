// Resource-centric (RC) baseline configuration. RC follows the paper's
// description of prior work (Flux-style operator-level key repartitioning
// with global synchronization), implemented — as in the paper's comparison —
// with the same performance model, load-balancing heuristic, and
// intra-process state sharing as Elasticutor.
#pragma once

#include "common/units.h"
#include "sim/time.h"

namespace elasticutor {

struct RcConfig {
  /// Master switch (benches probing single repartitions disable it).
  bool enabled = true;

  /// How often the RC controller checks balance / provisioning.
  SimDuration interval_ns = Seconds(1);

  /// Repartition when max/avg executor load exceeds this.
  double imbalance_threshold = 1.2;
};

}  // namespace elasticutor
