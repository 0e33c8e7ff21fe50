// sim-dynamics: the simulator backend with the paper's micro topology at its
// Fig. 5 defaults (32 nodes x 8 cores, 10K keys, Zipf 0.5, 1 ms per tuple),
// the elastic paradigm driven by the DynamicScheduler, four key-popularity
// shuffles per minute (scn::MicroDynamics(4)) and the per-key order
// validator on. The modeled numbers are in virtual time and repeat exactly
// at a fixed seed; sim_speed_tps is the wall-clock cost of producing them.
#include <algorithm>

#include "engine/engine.h"
#include "scenario/library.h"
#include "scenario/scenario_driver.h"
#include "scheduler/scheduler.h"
#include "trace.h"
#include "workload/micro.h"
#include "workloads.h"

namespace e2e {

Outcome RunSim(const Options& o) {
  using elasticutor::Engine;
  using elasticutor::SimDuration;

  auto workload = elasticutor::BuildMicroWorkload(elasticutor::MicroOptions{},
                                                  o.seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n", workload.status().ToString().c_str());
    std::exit(2);
  }
  elasticutor::EngineConfig config;
  config.paradigm = o.paradigm;
  config.seed = o.seed;
  config.validate_key_order = true;
  // 10 s of virtual warm-up and 3 virtual seconds per --seconds measured
  // (60 s at the default 20).
  const SimDuration warmup = elasticutor::SecondsF(std::min(10.0, o.seconds / 2));
  const SimDuration measure = elasticutor::SecondsF(3.0 * o.seconds);

  std::vector<Span> spans;
  std::vector<double> setup_s, setup_ms, start_ms, ref_pass_us;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<elasticutor::ScenarioDriver> driver;
  for (int r = 0; r < kSetupReps; ++r) {
    const int64_t ref = ReferencePassNs(r);
    const int64_t a = NowNs();
    auto e = std::make_unique<Engine>(workload->topology, config);
    const elasticutor::Status st = e->Setup();
    const int64_t b = NowNs();
    if (!st.ok()) {
      std::fprintf(stderr, "Setup failed: %s\n", st.ToString().c_str());
      std::exit(2);
    }
    std::unique_ptr<elasticutor::ScenarioDriver> d;
    if (r + 1 == kSetupReps) {
      d = std::make_unique<elasticutor::ScenarioDriver>(
          elasticutor::scn::MicroDynamics(4.0), e.get(), workload->keys);
      d->Install();
    }
    const int64_t c = NowNs();
    e->Start();
    const int64_t dd = NowNs();
    setup_s.push_back(static_cast<double>((b - a) + (dd - c)) /
                      static_cast<double>(ref) * kReferencePassS);
    ref_pass_us.push_back(static_cast<double>(ref) / 1e3);
    setup_ms.push_back(static_cast<double>(b - a) / 1e6);
    start_ms.push_back(static_cast<double>(dd - c) / 1e6);
    spans.push_back({"engine.setup", a, b, -1});
    spans.push_back({"engine.start", c, dd, -1});
    engine = std::move(e);
    driver = std::move(d);
  }

  int64_t a = NowNs();
  engine->RunFor(warmup);
  spans.push_back({"sim.warmup", a, NowNs(), -1});
  engine->ResetMetricsAfterWarmup();
  std::vector<double> sample_us;
  const int64_t wall_a = NowNs();
  for (SimDuration done = 0; done < measure;) {
    const SimDuration step = std::min<SimDuration>(elasticutor::Seconds(1),
                                                   measure - done);
    a = NowNs();
    engine->RunFor(step);
    const int64_t b = NowNs();
    (void)engine->SampleTelemetry();
    const int64_t c = NowNs();
    spans.push_back({"sim.run", a, b, -1});
    spans.push_back({"telemetry.sample", b, c, -1});
    sample_us.push_back(static_cast<double>(c - b) / 1e3);
    done += step;
  }
  const double wall_s = static_cast<double>(NowNs() - wall_a) / 1e9;

  Outcome out;
  const auto& lat = engine->LatencyHistogram();
  out.Add("max_tps", engine->MeasuredThroughput(), "tuples/s");
  out.Add("p50_ms", static_cast<double>(lat.P50()) / 1e6, "ms");
  out.Add("p99_ms", static_cast<double>(lat.P99()) / 1e6, "ms");
  out.Add("setup_s", Median(setup_s), "s");

  const elasticutor::PerfCounters perf = engine->Perf();
  out.Add("sim_speed_tps", static_cast<double>(perf.routed_tuples) / wall_s,
          "tuples/s");
  out.Add("sim.events_per_tuple", perf.events_per_tuple(), "count");
  out.Add("sim.allocs_per_tuple", perf.heap_allocs_per_tuple(), "count");
  out.Add("net.msgs_per_tuple", perf.messages_per_tuple(), "count");
  out.Add("sim.wall_ns_per_event",
          perf.events_fired > 0 ? wall_s * 1e9 / perf.events_fired : 0.0, "ns");
  if (elasticutor::DynamicScheduler* sched = engine->scheduler()) {
    const elasticutor::SchedulerTiming& t = sched->timing();
    out.Add("scheduler.measure_ms", t.Avg(t.measure_ms), "ms");
    out.Add("scheduler.targets_ms", t.Avg(t.targets_ms), "ms");
    out.Add("scheduler.solve_ms", t.Avg(t.solve_ms), "ms");
    out.Add("scheduler.diff_ms", t.Avg(t.diff_ms), "ms");
    out.Add("scheduler.cycle_ms_p99", t.P99CycleMs(), "ms");
  }
  const auto& ops = engine->metrics()->elasticity_ops();
  double pause_ms = 0.0;
  for (const auto& op : ops) pause_ms += static_cast<double>(op.pause_ns) / 1e6;
  out.Add("elastic.ops", static_cast<double>(ops.size()), "count");
  out.Add("elastic.pause_ms_avg", ops.empty() ? 0.0 : pause_ms / ops.size(), "ms");
  out.Add("exec.telemetry_sample_us", Median(sample_us), "us");
  out.Add("engine.setup_ms", Median(setup_ms), "ms");
  out.Add("engine.start_ms", Median(start_ms), "ms");
  out.Add("ref.pass_us", Median(ref_pass_us), "us");

  out.attempted = engine->metrics()->sink_count();
  out.failed = engine->order_violations();
  if (out.attempted <= 0) out.Fail("no tuple reached the sink");
  if (o.trace) {
    std::vector<Track> tracks{{"driver", &spans}};
    PrintSelfTimeTable(tracks);
    if (!o.trace_out.empty() && !WriteChromeTrace(o.trace_out, tracks)) {
      std::fprintf(stderr, "cannot write trace %s\n", o.trace_out.c_str());
    }
  }
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace e2e
