#include "state/migration_engine.h"

#include <algorithm>
#include <vector>

namespace elasticutor {

namespace {

/// Chunks in flight at once during a cross-node pre-copy: 1 would be fully
/// RTT-paced; more pipelines the path (but hogs the NIC for longer bursts).
constexpr int kPipelineDepth = 4;

// A same-node handoff at zero copy rate moves ownership without shipping a
// byte (intra-process state sharing) — it must not count as traffic.
bool FreeTransfer(NodeId from, NodeId to, double local_rate) {
  return from == to && local_rate <= 0.0;
}
}  // namespace

void MigrationEngine::Transfer(NodeId from, NodeId to, int64_t bytes,
                               double local_rate, EventFn done) {
  if (from != to) {
    net_->Send(from, to, bytes, Purpose::kStateMigration, std::move(done));
    return;
  }
  if (local_rate <= 0.0 || bytes <= 0) {
    done();  // Free handoff (intra-process state sharing): synchronous.
    return;
  }
  SimDuration copy = static_cast<SimDuration>(
      static_cast<double>(bytes) / local_rate * 1e9);
  exec_->After(copy, std::move(done));
}

MigrationEngine::Handle MigrationEngine::Begin(ProcessStateStore* src,
                                               ShardId shard, NodeId from,
                                               NodeId to,
                                               MigrationStrategy strategy,
                                               double local_copy_bytes_per_sec,
                                               EventFn precopy_done) {
  ELASTICUTOR_CHECK(src != nullptr && src->HasShard(shard));
  auto m = std::make_shared<ShardMigration>();
  m->src_ = src;
  m->shard_ = shard;
  m->from_ = from;
  m->to_ = to;
  m->strategy_ = strategy;
  m->local_copy_bytes_per_sec_ = local_copy_bytes_per_sec;
  m->begin_at_ = exec_->now();
  m->stats_.inter_node = from != to;
  ++migrations_begun_;

  if (strategy == MigrationStrategy::kSyncBlob ||
      FreeTransfer(from, to, local_copy_bytes_per_sec)) {
    // Sync-blob: nothing moves until the caller has paused; the blob ships
    // in Finalize(). Free handoff: there are no bytes to pre-copy at all.
    // Both complete synchronously so the caller's pause/label sequence is
    // identical to the historical inline path.
    m->precopy_done_ = true;
    if (precopy_done) precopy_done();
    return m;
  }

  // Chunked live pre-copy: snapshot the current size, intercept writes, and
  // stream chunks while the caller keeps processing.
  ShardState* state = src->GetShard(shard);
  ELASTICUTOR_CHECK_MSG(state->dirty == nullptr,
                        "shard already has a migration in flight");
  state->dirty = &m->tracker_;
  m->snapshot_bytes_ = state->bytes();
  m->precopy_done_cb_ = std::move(precopy_done);
  PumpPrecopy(m);
  return m;
}

void MigrationEngine::PumpPrecopy(const Handle& m) {
  // Keep up to kPipelineDepth chunks in flight; each landing chunk refills
  // the window, so data tuples sharing the NIC interleave between chunks
  // instead of waiting behind the whole snapshot. Same-node copies are a
  // single memcpy stream — no pipelining to exploit.
  //
  // The window accounting happens under the handle's mutex (on the native
  // backend the Begin() thread and the driver's chunk callbacks pump
  // concurrently); the Transfer calls happen outside it so a chunk landing
  // synchronously cannot self-deadlock.
  const int64_t chunk = std::max<int64_t>(1, config_.chunk_bytes);
  const int depth = m->from_ == m->to_ ? 1 : kPipelineDepth;
  std::vector<int64_t> to_send;
  {
    std::lock_guard<std::mutex> lock(m->mu_);
    while (m->chunks_in_flight_ < depth &&
           (m->precopy_sent_ < m->snapshot_bytes_ ||
            (m->snapshot_bytes_ == 0 && m->stats_.chunks == 0 &&
             m->chunks_in_flight_ == 0 && to_send.empty()))) {
      int64_t bytes =
          std::min<int64_t>(chunk, m->snapshot_bytes_ - m->precopy_sent_);
      bytes = std::max<int64_t>(bytes, 0);  // Empty shard: one zero-byte
                                            // chunk.
      m->precopy_sent_ += bytes;
      ++m->chunks_in_flight_;
      to_send.push_back(bytes);
      if (m->snapshot_bytes_ == 0) break;
    }
  }
  for (int64_t bytes : to_send) {
    Handle handle = m;
    Transfer(m->from_, m->to_, bytes, m->local_copy_bytes_per_sec_,
             [this, handle, bytes]() {
               chunks_shipped_.fetch_add(1, std::memory_order_relaxed);
               bytes_shipped_.fetch_add(bytes, std::memory_order_relaxed);
               bool pump = false;
               EventFn cb;
               {
                 std::lock_guard<std::mutex> lock(handle->mu_);
                 --handle->chunks_in_flight_;
                 ++handle->stats_.chunks;
                 handle->stats_.precopy_bytes += bytes;
                 if (handle->precopy_sent_ < handle->snapshot_bytes_) {
                   pump = true;
                 } else if (handle->chunks_in_flight_ == 0 &&
                            !handle->precopy_done_) {
                   handle->precopy_done_ = true;
                   handle->stats_.precopy_ns =
                       exec_->now() - handle->begin_at_;
                   cb = std::move(handle->precopy_done_cb_);
                   handle->precopy_done_cb_ = nullptr;
                 }
               }
               if (pump) PumpPrecopy(handle);
               if (cb) cb();
             });
  }
}

void MigrationEngine::Finalize(const Handle& m, ProcessStateStore* dst,
                               DoneFn done) {
  ELASTICUTOR_CHECK_MSG(m->precopy_done_, "Finalize before pre-copy finished");
  ELASTICUTOR_CHECK_MSG(!m->finalized_, "migration finalized twice");
  m->finalized_ = true;
  ELASTICUTOR_CHECK(dst != nullptr);

  Result<ShardState> extracted = m->src_->ExtractShard(m->shard_);
  ELASTICUTOR_CHECK(extracted.ok());
  auto blob = std::make_shared<ShardState>(std::move(extracted).value());
  blob->dirty = nullptr;  // The tracker stays behind with the source.

  const int64_t total = blob->bytes();
  int64_t remaining;
  if (FreeTransfer(m->from_, m->to_, m->local_copy_bytes_per_sec_)) {
    remaining = 0;  // Ownership handoff: nothing ships.
  } else if (m->strategy_ == MigrationStrategy::kSyncBlob) {
    remaining = total;
  } else {
    // The delta is what was written since the snapshot: dirtied entries plus
    // in-place growth, capped by the blob itself (re-shipping everything can
    // never beat the blob).
    remaining = std::min<int64_t>(m->tracker_.dirty_bytes(), total);
  }
  m->stats_.delta_bytes = remaining;
  m->stats_.moved_bytes = m->stats_.precopy_bytes + remaining;
  bytes_shipped_ += remaining;

  const SimTime finalize_start = exec_->now();
  Handle handle = m;
  EventFn install = [this, handle, dst, blob, finalize_start,
                     done = std::move(done)]() {
    ELASTICUTOR_CHECK(
        dst->InstallShard(handle->shard_, std::move(*blob)).ok());
    handle->stats_.finalize_ns = exec_->now() - finalize_start;
    ++migrations_completed_;
    if (done) done(handle->stats_);
  };
  if (remaining <= 0) {
    install();  // Nothing left to ship: flip immediately.
    return;
  }
  Transfer(m->from_, m->to_, remaining, m->local_copy_bytes_per_sec_,
           std::move(install));
}

void MigrationEngine::MigrateSync(ProcessStateStore* src,
                                  ProcessStateStore* dst, ShardId shard,
                                  NodeId from, NodeId to,
                                  double local_copy_bytes_per_sec,
                                  DoneFn done) {
  Handle m = Begin(src, shard, from, to, MigrationStrategy::kSyncBlob,
                   local_copy_bytes_per_sec, nullptr);
  Finalize(m, dst, std::move(done));
}

}  // namespace elasticutor
