// ScenarioDriver: executes a Scenario against a live Engine. Rate events are
// compiled into a RateShaper and installed once via Engine::ShapeSourceRates
// (trace-mode sources only); every other event is scheduled as a simulator
// event at its timestamp, so the whole disturbance timeline is part of the
// deterministic event order.
//
//   auto workload = BuildMicroWorkload(options, seed).value();
//   Engine engine(workload.topology, config);
//   ELASTICUTOR_CHECK(engine.Setup().ok());
//   ScenarioDriver driver(scn::FlashCrowd(Seconds(20), Seconds(15),
//                                         /*rate_mult=*/1.5, /*share=*/0.2,
//                                         /*keys=*/64),
//                         &engine, workload.keys);
//   driver.Install();
//   engine.Start();
//   engine.RunFor(...);
//
// Key events (shuffle/hotspot/skew) require the DynamicKeySpace; fault
// events require a node id inside the engine's cluster — Install() validates
// both up front rather than failing mid-run.
//
// Lifetime: the driver must outlive the simulation run — the timed events
// scheduled by Install() call back into it. (The rate shaper alone is
// copied into the sources, so a scenario with only rate events would
// survive the driver, but don't rely on that.)
#pragma once

#include <memory>
#include <unordered_map>

#include "engine/engine.h"
#include "scenario/scenario.h"
#include "workload/keyspace.h"

namespace elasticutor {

class ScenarioDriver {
 public:
  /// `keys` may be null when the scenario has no key events.
  ScenarioDriver(Scenario scenario, Engine* engine,
                 std::shared_ptr<DynamicKeySpace> keys = nullptr);

  /// Installs the rate shaper and schedules every timed event. Call exactly
  /// once, after Engine::Setup() and before running the measured window.
  void Install();

  const Scenario& scenario() const { return scenario_; }
  int64_t events_fired() const { return events_fired_; }

 private:
  void Validate() const;
  void Execute(const ScenarioEvent& e, int seq);
  void Restore(const ScenarioEvent& e, int seq);

  Scenario scenario_;
  Engine* engine_;
  std::shared_ptr<DynamicKeySpace> keys_;
  RateShaper shaper_;
  int shuffle_generation_ = 0;  // Invalidates superseded cadence timers.
  // Last-writer ownership per node for windowed faults: a window's restore
  // fires only if no later event overwrote the node's CPU/NIC state (value
  // equality cannot distinguish two identical overlapping windows).
  std::unordered_map<NodeId, int> cpu_writer_;
  std::unordered_map<NodeId, int> nic_writer_;
  int64_t events_fired_ = 0;
  bool installed_ = false;
};

}  // namespace elasticutor
