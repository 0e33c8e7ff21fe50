// Dynamic-scheduler configuration (§4). Kept dependency-free so that
// engine_config.h can embed it.
#pragma once

#include "common/units.h"
#include "sim/time.h"

namespace elasticutor {

struct SchedulerConfig {
  /// Master switch (benches probing manual core placement disable it).
  bool enabled = true;

  /// How often the scheduler recomputes allocation and assignment.
  SimDuration interval_ns = Seconds(1);

  /// User-specified latency target T_max for the Jackson-network model.
  SimDuration latency_target_ns = Millis(50);

  /// Initial data-intensity threshold φ̃ (bytes/s per core) above which an
  /// executor is constrained to local cores. Doubles until Algorithm 1
  /// finds a feasible assignment. Paper default: 512 KB/s.
  double phi_bytes_per_sec = 512.0 * 1024.0;

  /// If true, disable the migration-cost and locality optimizations of
  /// Algorithm 1 (the paper's "naive-EC" baseline): the assignment is
  /// recomputed from scratch each round, ignoring the existing placement and
  /// data intensity.
  bool naive_assignment = false;

  /// Routing-pause budget per scheduling cycle (seconds; 0 = unlimited).
  /// The cycle's planned state movement is priced with the pause-cost model
  /// (perf_model.h, strategy-aware: chunked-live pauses only for the dirty
  /// delta) and the whole diff is deferred when the estimate exceeds the
  /// budget — a brake on state-movement-heavy reconfigurations whose pauses
  /// would violate the latency SLO.
  double pause_budget_s = 0.0;
};

}  // namespace elasticutor
