#include "engine/spout.h"

#include <algorithm>

namespace elasticutor {

SpoutExecutor::SpoutExecutor(Runtime* rt, OperatorId op, ExecutorIndex index,
                             NodeId home)
    : ExecutorBase(rt, op, index, home),
      rng_(rt->rng()->Fork(0x500 + MakeExecutorId(op, index))) {}

void SpoutExecutor::OnTupleArrive(Tuple) {
  ELASTICUTOR_CHECK_MSG(false, "source executor received an upstream tuple");
}

void SpoutExecutor::Start() {
  const SourceSpec& src = rt_->topology().spec(op_).source;
  if (src.mode == SourceSpec::Mode::kSaturation) {
    rt_->exec()->After(0, [this]() { SaturationLoop(); });
  } else {
    ScheduleNextTraceArrival();
  }
}

bool SpoutExecutor::TryEmitDownstream(const Tuple& t) {
  // A keyed tuple goes to every downstream operator; all-or-nothing here is
  // unnecessary because sources in this repo have exactly one downstream
  // operator (checked by Engine at setup).
  const auto& downstream = rt_->topology().downstream(op_);
  return rt_->TryRoute(home_node_, downstream[0], t, &metrics_);
}

void SpoutExecutor::SaturationLoop() {
  if (stopped_) return;
  const SourceSpec& src = rt_->topology().spec(op_).source;
  const OperatorId down = rt_->topology().downstream(op_)[0];
  const size_t gen_batch =
      static_cast<size_t>(std::max(1, rt_->config().max_batch_tuples));
  size_t want = gen_batch;
  if (held_run_.empty()) {
    if (src.max_tuples > 0) {
      int64_t left = src.max_tuples - generated_;
      if (left <= 0) {
        budget_exhausted_ = true;
        return;
      }
      want = std::min(want, static_cast<size_t>(left));
    }
    for (size_t i = 0; i < want; ++i) {
      Tuple t = src.factory(&rng_, rt_->exec()->now());
      // Event time is the first emission attempt: back-pressure stalls
      // (e.g. RC pause barriers) count toward latency, as in Storm's
      // complete latency metric.
      t.created_at = rt_->exec()->now();
      rt_->CountOffered(down, t.key);
      held_run_.push_back(Runtime::PendingEmit{down, t});
    }
    generated_ += static_cast<int64_t>(want);
    held_next_ = 0;
  }
  // Head-of-line semantics (Storm spout): blocked tuples are retried, not
  // replaced — a saturated hot executor therefore throttles this spout.
  // RouteRun coalesces same-destination prefixes into single messages.
  while (held_next_ < held_run_.size()) {
    size_t routed = rt_->RouteRun(home_node_, held_run_.data() + held_next_,
                                  held_run_.size() - held_next_, &metrics_);
    if (routed == 0) {
      ++blocked_attempts_;
      // Jittered back-off: synchronized retries would otherwise arrive in
      // thundering herds that slam queues to their cap and drain them empty.
      SimDuration delay = static_cast<SimDuration>(
          kEmitRetryNs * (0.5 + rng_.NextDouble()));
      rt_->exec()->After(delay, [this]() { SaturationLoop(); });
      return;
    }
    held_next_ += routed;
    emitted_ += static_cast<int64_t>(routed);
    metrics_.processed += static_cast<int64_t>(routed);
  }
  const size_t drained = held_run_.size();
  held_run_.clear();
  SimDuration gen =
      src.gen_overhead_ns * static_cast<SimDuration>(drained);
  metrics_.busy_ns += gen;
  if (src.max_tuples > 0 && generated_ >= src.max_tuples) {
    budget_exhausted_ = true;  // Budget spent and fully routed: fall silent.
    return;
  }
  rt_->exec()->After(gen, [this]() { SaturationLoop(); });
}

void SpoutExecutor::ScheduleNextTraceArrival() {
  if (stopped_) return;
  const SourceSpec& src = rt_->topology().spec(op_).source;
  if (src.max_tuples > 0 && generated_ >= src.max_tuples) {
    budget_exhausted_ = true;  // Backlog keeps draining via DrainBacklog.
    return;
  }
  int num_executors = static_cast<int>(rt_->executors(op_).size());
  double rate = src.rate_fn(rt_->exec()->now()) / num_executors;
  // Guard against zero-rate intervals: poll again shortly.
  SimDuration gap = rate <= 1e-9
                        ? Millis(100)
                        : static_cast<SimDuration>(
                              rng_.NextExponential(1e9 / rate));
  rt_->exec()->After(gap, [this]() {
    if (stopped_) return;
    const SourceSpec& spec_src = rt_->topology().spec(op_).source;
    Tuple t = spec_src.factory(&rng_, rt_->exec()->now());
    t.created_at = rt_->exec()->now();  // Event time: latency includes backlog.
    rt_->CountOffered(rt_->topology().downstream(op_)[0], t.key);
    ++generated_;
    backlog_.push_back(t);
    DrainBacklog();
    ScheduleNextTraceArrival();
  });
}

void SpoutExecutor::DrainBacklog() {
  if (draining_) return;
  while (!backlog_.empty()) {
    if (TryEmitDownstream(backlog_.front())) {
      backlog_.pop_front();
      ++emitted_;
      ++metrics_.processed;
      continue;
    }
    // Blocked: retry later; `draining_` prevents stacking retry loops.
    draining_ = true;
    SimDuration delay = static_cast<SimDuration>(
        kEmitRetryNs * (0.5 + rng_.NextDouble()));
    rt_->exec()->After(delay, [this]() {
      draining_ = false;
      DrainBacklog();
    });
    return;
  }
}

}  // namespace elasticutor
