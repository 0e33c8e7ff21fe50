// Single-threaded executor: the building block of the static and
// resource-centric paradigms ("each executor consists of a single data
// processing thread bound to an assigned CPU core", §2.2).
//
// It owns the state of the operator-level shards currently mapped to it; the
// RC repartitioner moves shards (and their state) between executors of the
// same operator under a global pause.
#pragma once

#include <deque>
#include <memory>
#include <utility>

#include "engine/executor_base.h"
#include "engine/runtime.h"
#include "state/state_store.h"

namespace elasticutor {

class SingleTaskExecutor : public ExecutorBase {
 public:
  SingleTaskExecutor(Runtime* rt, OperatorId op, ExecutorIndex index,
                     NodeId home);

  void OnTupleArrive(Tuple t) override;
  void OnTupleBatch(const Tuple* tuples, size_t count) override;
  bool CanAccept() const override;
  int64_t queued() const override {
    return static_cast<int64_t>(queue_.size());
  }

  /// True when the input queue is empty and no tuple is being processed
  /// (drain barrier of the RC repartitioning protocol).
  bool idle() const { return !busy_ && queue_.empty(); }

  ProcessStateStore* state_store() { return &store_; }

  /// Per-shard processed-tuple counts since the last repartition (feeds the
  /// RC controller's balance statistics).
  const std::unordered_map<ShardId, int64_t>& shard_load() const {
    return shard_load_;
  }
  void ResetShardLoad() { shard_load_.clear(); }

 private:
  void Admit(const Tuple& t);
  void StartNext();
  void OnProcessingComplete(Tuple t);

  std::deque<Tuple> queue_;
  bool busy_ = false;
  ProcessStateStore store_;
  std::unordered_map<ShardId, int64_t> shard_load_;
  Rng service_rng_;
};

/// EmitContext that collects outputs into a pooled Runtime::FlushJob for
/// Runtime::FlushBatch. A context that was never Emit()ted into (or whose
/// job was not taken) returns the job to the pool on destruction, so the
/// steady-state emit path performs no allocation.
class BatchEmitContext : public EmitContext {
 public:
  BatchEmitContext(Runtime* rt, OperatorId from_op, SimTime created_at)
      : rt_(rt), created_at_(created_at), job_(rt->AcquireFlushJob()) {
    downstream_ = &rt->topology().downstream(from_op);
  }
  ~BatchEmitContext() override {
    if (job_ != nullptr) rt_->ReleaseFlushJob(job_);
  }

  void Emit(uint64_t key, int32_t size_bytes,
            const TuplePayload& payload) override {
    Tuple out;
    out.key = key;
    out.size_bytes = size_bytes;
    out.created_at = created_at_;
    out.payload = payload;
    for (OperatorId to : *downstream_) {
      rt_->CountOffered(to, key);  // Demand signal, pre-back-pressure.
      job_->emits.push_back(Runtime::PendingEmit{to, out});
    }
  }

  /// Hands the filled job to the caller (who routes it through
  /// Runtime::FlushBatch or drains it into an emitter queue and releases).
  Runtime::FlushJob* TakeJob() { return std::exchange(job_, nullptr); }
  bool empty() const { return job_->emits.empty(); }

 private:
  Runtime* rt_;
  SimTime created_at_;
  const std::vector<OperatorId>* downstream_;
  Runtime::FlushJob* job_;
};

/// Applies the operator's logic (or default selectivity-based emission) for
/// one tuple. Shared by every executor implementation on every execution
/// backend (the native runtime calls it with its own EmitContext), so the
/// per-tuple semantics cannot diverge between sim and native.
void ApplyOperatorLogic(const Topology& topology, const OperatorSpec& spec,
                        OperatorId op, const Tuple& t,
                        ProcessStateStore* store, ShardId shard,
                        EmitContext* emit, Rng* rng);

/// Samples the CPU cost of processing `t` under `spec`: the operator's
/// cost_fn when set, else exponentially distributed around mean_cost_ns
/// (the M/M/k service model).
SimDuration SampleCost(const OperatorSpec& spec, const Tuple& t, Rng* rng);

}  // namespace elasticutor
