// The benchmark's workloads. Each runs in its own process (run.py starts one
// per workload), so peak RSS is per workload.
#pragma once

#include <cstdint>
#include <string>

#include "bench_util.h"
#include "engine/engine_config.h"

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured schedule in wall seconds (native) or the scale
  /// of the virtual-time run (sim).
  double seconds = 20.0;
  /// Layer timers, sampled spans and the trace file on.
  bool trace = false;
  std::string trace_out;
  /// Bench-only switch to show that skew-shift needs elasticity.
  elasticutor::Paradigm paradigm = elasticutor::Paradigm::kElastic;
};

/// steady, skew-shift, wide-state: the native backend, open loop.
bool IsNativeWorkload(const std::string& name);
Outcome RunNative(const Options& options);

/// sim-dynamics: the simulator backend, deterministic at a fixed seed.
Outcome RunSim(const Options& options);

/// How many times each run builds and starts an engine; setup_s is the
/// median over them of the set-up's wall time against the reference pass
/// run just before it (bench_util.h), since one set-up takes only
/// milliseconds.
constexpr int kSetupReps = 21;

}  // namespace e2e
