#include "engine/single_task_executor.h"

namespace elasticutor {

namespace {

/// Input-queue capacity of a static/RC single-threaded executor.
constexpr int64_t kExecutorQueueCap = 256;

}  // namespace

SimDuration SampleCost(const OperatorSpec& spec, const Tuple& t, Rng* rng) {
  if (spec.cost_fn) return spec.cost_fn(t, rng);
  return static_cast<SimDuration>(
      rng->NextExponential(static_cast<double>(spec.mean_cost_ns)));
}

void ApplyOperatorLogic(const Topology& topology, const OperatorSpec& spec,
                        OperatorId op, const Tuple& t,
                        ProcessStateStore* store, ShardId shard,
                        EmitContext* emit, Rng* rng) {
  if (spec.logic) {
    StateAccessor accessor(store, shard, t.key);
    spec.logic(t, accessor, emit);
    return;
  }
  // Default logic: touch a per-key counter, then emit `selectivity` outputs
  // (fractional part resolved probabilistically).
  StateAccessor accessor(store, shard, t.key);
  int64_t* counter = accessor.GetOrCreate<int64_t>();
  ++*counter;
  if (topology.downstream(op).empty()) return;
  double want = spec.selectivity;
  int outputs = static_cast<int>(want);
  if (rng->NextDouble() < want - outputs) ++outputs;
  for (int i = 0; i < outputs; ++i) {
    emit->Emit(t.key, spec.output_bytes, t.payload);
  }
}

SingleTaskExecutor::SingleTaskExecutor(Runtime* rt, OperatorId op,
                                       ExecutorIndex index, NodeId home)
    : ExecutorBase(rt, op, index, home),
      service_rng_(rt->rng()->Fork(MakeExecutorId(op, index))) {}

bool SingleTaskExecutor::CanAccept() const {
  return static_cast<int64_t>(queue_.size()) + reserved() < kExecutorQueueCap;
}

void SingleTaskExecutor::Admit(const Tuple& t) {
  ConsumeReservation();
  ++metrics_.arrivals;
  metrics_.bytes_in += t.size_bytes;
  queue_.push_back(t);
  rt_->StampArrival(op_, &queue_.back());
}

void SingleTaskExecutor::OnTupleArrive(Tuple t) {
  Admit(t);
  metrics_.queued = static_cast<int64_t>(queue_.size());
  if (!busy_) StartNext();
}

void SingleTaskExecutor::OnTupleBatch(const Tuple* tuples, size_t count) {
  // Bulk arrival path (channel micro-batching): admit the whole run, then
  // kick the processing loop once.
  for (size_t i = 0; i < count; ++i) Admit(tuples[i]);
  metrics_.queued = static_cast<int64_t>(queue_.size());
  if (!busy_) StartNext();
}

void SingleTaskExecutor::StartNext() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Tuple t = queue_.front();
  queue_.pop_front();
  metrics_.queued = static_cast<int64_t>(queue_.size());
  const OperatorSpec& spec = rt_->topology().spec(op_);
  SimDuration cost = SampleCost(spec, t, &service_rng_);
  // Injected node slowdown (straggler / degraded node) stretches the actual
  // service time; busy_ns includes it, so measured µ drops accordingly.
  cost = static_cast<SimDuration>(
      static_cast<double>(cost) * rt_->faults()->cpu_factor(home_node_));
  metrics_.busy_ns += cost;
  rt_->metrics()->OnBusy(home_node_, cost);
  rt_->exec()->After(cost, [this, t]() { OnProcessingComplete(t); });
}

void SingleTaskExecutor::OnProcessingComplete(Tuple t) {
  const OperatorSpec& spec = rt_->topology().spec(op_);
  OperatorPartition* part = rt_->partition(op_);
  ShardId shard = part->ShardOf(t.key);
  ++shard_load_[shard];

  BatchEmitContext emit(rt_, op_, t.created_at);
  ApplyOperatorLogic(rt_->topology(), spec, op_, t, &store_, shard, &emit,
                     &service_rng_);

  ++metrics_.processed;
  rt_->OnProcessed(op_, t);

  if (emit.empty()) {
    StartNext();
    return;
  }
  // The single thread does not take the next tuple until outputs are
  // dispatched (this is how back-pressure propagates upstream).
  rt_->FlushBatch(shared_from_this(), emit.TakeJob(),
                  [this]() { StartNext(); });
}

}  // namespace elasticutor
