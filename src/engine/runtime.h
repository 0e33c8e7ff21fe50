// Runtime: the shared hub all executors talk to. It owns per-operator
// routing state (partition + executor set + in-flight counters) and
// implements the inter-operator data path with back-pressure:
//
//   emitter --RouteRun--> [paused? full?] --Network::Send--> OnTupleBatch
//
// A blocked emitter retries after ~kEmitRetryNs (jittered); because a
// task does not start its next input until its current outputs are flushed,
// back-pressure propagates upstream to the spouts (bounded queues
// everywhere => bounded latency, §5.2).
//
// Channel micro-batching: RouteRun coalesces CONSECUTIVE emissions bound
// for the same destination executor (up to EngineConfig::max_batch_tuples)
// into one Network message with one delivery event, reserving one admission
// slot per tuple up front. Only leading runs coalesce, so emission order —
// and with it per-(src,dst) FIFO and the labeling protocol — is preserved
// exactly; at max_batch_tuples == 1 the data path is tuple-at-a-time.
//
// Emission batches and delivery payloads live in free-list pools whose
// entries keep their capacity, so the steady-state data path performs no
// heap allocation (EventFn::heap_allocations() stays flat; benches gate it).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cluster/fault_plane.h"
#include "common/random.h"
#include "engine/engine_config.h"
#include "engine/executor_base.h"
#include "engine/metrics.h"
#include "engine/partition.h"
#include "engine/topology.h"
#include "exec/execution_backend.h"
#include "net/network.h"

namespace elasticutor {

class MigrationEngine;

/// Mean back-off of a blocked emitter (spout, executor emitter, flush job);
/// each retry waits a uniform [0.5, 1.5) multiple of it.
inline constexpr SimDuration kEmitRetryNs = Micros(500);

class Runtime {
 public:
  Runtime(exec::ExecutionBackend* exec, Network* net,
          MigrationEngine* migration, const NodeFaultPlane* faults,
          const Topology* topology, const EngineConfig* config,
          EngineMetrics* metrics);

  // ---- Wiring ----
  void SetPartition(OperatorId op, std::unique_ptr<OperatorPartition> p);
  OperatorPartition* partition(OperatorId op) {
    return partitions_.at(op).get();
  }
  /// Installs/replaces the executor set of an operator (RC rescaling swaps
  /// sets at a pause barrier).
  void SetExecutors(OperatorId op, std::vector<ExecutorPtr> executors);
  const std::vector<ExecutorPtr>& executors(OperatorId op) const {
    return executors_.at(op);
  }
  ExecutorPtr executor(OperatorId op, ExecutorIndex index) const {
    return executors_.at(op).at(index);
  }

  // ---- Data path ----
  struct PendingEmit {
    OperatorId to_op;
    Tuple tuple;
  };

  /// Attempts to deliver `t` to `to_op` (routing by key). Returns false if
  /// the operator is paused or the target executor's queues are full.
  /// On success the tuple is in flight and inflight(to_op) was incremented;
  /// `emitter_metrics` (optional) gets bytes_out credit.
  ///
  /// Delivery closures borrow the target executor by raw pointer: executor
  /// sets only shrink at the RC pause barrier, which waits for
  /// inflight(op) == 0, so no delivery can outlive its target.
  bool TryRoute(NodeId from, OperatorId to_op, const Tuple& t,
                ExecutorMetrics* emitter_metrics);

  /// Routes a maximal leading run of `emits[0..n)` that shares emits[0]'s
  /// destination (same to_op AND same destination executor), capped at
  /// EngineConfig::max_batch_tuples, as ONE network message with one
  /// delivery event and one admission reservation per tuple. Returns the
  /// number of tuples consumed; 0 means blocked (paused or first slot
  /// unavailable — the caller retries later).
  size_t RouteRun(NodeId from, const PendingEmit* emits, size_t n,
                  ExecutorMetrics* emitter_metrics);

  // ---- Pooled emission batches ----
  /// One in-flight output flush: the emissions of one processed tuple plus
  /// the retry state needed to drain them under back-pressure. Jobs are
  /// pooled; `emits` keeps its capacity across reuse so the steady-state
  /// emit path does not allocate.
  struct FlushJob {
    std::vector<PendingEmit> emits;
    ExecutorPtr emitter;
    size_t next = 0;
    EventFn done;
  };
  FlushJob* AcquireFlushJob();
  void ReleaseFlushJob(FlushJob* job);

  /// Drains `job->emits` in order (coalescing same-destination runs,
  /// retrying while blocked), then runs `done` and releases the job back to
  /// the pool. `emitter` is kept alive for the duration of the flush.
  void FlushBatch(ExecutorPtr emitter, FlushJob* job, EventFn done);

  /// Records offered demand for `to_op` (called exactly once per tuple, at
  /// its first emission attempt — before any back-pressure).
  void CountOffered(OperatorId to_op, uint64_t key) {
    OperatorPartition* part = partitions_.at(to_op).get();
    part->CountOffered(part->ShardOf(key));
  }

  // ---- Processing bookkeeping ----
  /// Called by an executor when a tuple has been fully processed.
  void OnProcessed(OperatorId op, const Tuple& t);

  /// Tuples dispatched toward `op` but not yet fully processed (in network +
  /// queued + being processed). The RC drain barrier waits on this.
  int64_t inflight(OperatorId op) const { return inflight_.at(op); }

  // ---- Order validation (enabled by config.validate_key_order) ----
  /// Assigns the arrival sequence number for a tuple entering `op`.
  void StampArrival(OperatorId op, Tuple* t);
  OrderValidator* validator() {
    return validate_ ? &validator_ : nullptr;
  }

  // ---- Accessors ----
  /// The execution backend: virtual clock + deferred-call scheduling
  /// (SimBackend by default; see exec/execution_backend.h).
  exec::ExecutionBackend* exec() { return exec_; }
  Network* net() { return net_; }
  /// The shared shard-migration engine (single migration code path for the
  /// elastic executor and the RC repartitioner).
  MigrationEngine* migration() { return migration_; }
  /// Injected node faults (scenario layer): per-node CPU slowdown factors
  /// and scheduling availability. Executors scale sampled service times by
  /// faults()->cpu_factor(node); the scheduler zeroes the capacity of
  /// unavailable nodes.
  const NodeFaultPlane* faults() const { return faults_; }
  const Topology& topology() const { return *topology_; }
  const EngineConfig& config() const { return *config_; }
  EngineMetrics* metrics() { return metrics_; }
  Rng* rng() { return &rng_; }

  /// Resets executor + engine counters (after warm-up) and starts a new
  /// perf-counter window (events/allocs/messages per routed tuple).
  void ResetMetricsAfterWarmup();

 private:
  struct FlushRetry;
  struct BatchDeliver;

  /// Drains the job from job->next; schedules itself on back-pressure.
  void FlushJobStep(FlushJob* job);

  std::vector<Tuple>* AcquireTupleBatch();
  void ReleaseTupleBatch(std::vector<Tuple>* batch);

  exec::ExecutionBackend* exec_;
  Network* net_;
  MigrationEngine* migration_;
  const NodeFaultPlane* faults_;
  const Topology* topology_;
  const EngineConfig* config_;
  EngineMetrics* metrics_;
  bool validate_;
  size_t max_batch_;
  Rng rng_;

  std::vector<std::unique_ptr<OperatorPartition>> partitions_;
  std::vector<std::vector<ExecutorPtr>> executors_;
  std::vector<int64_t> inflight_;
  OrderValidator validator_;

  // Free-list pools (owned storage + free pointers). Entries retain vector
  // capacity, so after warm-up both pools stop allocating.
  std::vector<std::unique_ptr<FlushJob>> job_pool_;
  std::vector<FlushJob*> free_jobs_;
  std::vector<std::unique_ptr<std::vector<Tuple>>> batch_pool_;
  std::vector<std::vector<Tuple>*> free_batches_;
};

}  // namespace elasticutor
