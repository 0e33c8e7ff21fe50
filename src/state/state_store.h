// Per-process shard state store — the "lightweight in-memory key-value
// store" of §3.2. Each elastic-executor process (main or remote) owns one
// ProcessStateStore; tasks in the same process share it, so reassigning a
// shard between two tasks of the same process needs no state migration
// (intra-process state sharing). Cross-process reassignment is driven by the
// MigrationEngine (state/migration_engine.h), which extracts the shard here,
// ships it (as one blob or as live pre-copied chunks) and installs it at the
// destination store.
//
// State has two components per shard:
//  * base_bytes — the configured synthetic shard payload (the paper's "shard
//    state size", 32 KB by default), representing opaque operator state;
//  * user entries — real typed per-key values operator logic reads/writes
//    through StateAccessor (e.g. the SSE order books), with an estimated
//    byte footprint that contributes to migration cost.
//
// The user entries sit in a flat per-shard StateTable (state/state_table.h):
// one 40-byte slot per key holds the key, a per-type ops pointer and a
// 24-byte buffer. A value of at most 24 bytes, at most 8-byte aligned and
// nothrow-movable is stored in the slot itself, so an access costs one cache
// miss; any other value lives on the heap behind a pointer in the buffer.
//  * Pointer lifetime: a T* from StateAccessor::GetOrCreate stays valid
//    until the next insert into the same shard (an insert may grow the table
//    and relocate in-slot values).
//  * Iteration over `ShardState::entries` yields each key with a std::any
//    *copy* of its value; it is for oracles and diagnostics.
//  * StateAccessor::kEntryOverheadBytes is a constant of the migration-cost
//    model (what shipping one entry costs beyond its value), not the
//    container's actual per-entry overhead.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "state/state_table.h"

namespace elasticutor {

using ShardId = int32_t;

/// Records the keys and bytes written to a shard while its pre-copy is in
/// flight; the MigrationEngine ships exactly this delta during the final
/// paused window of a chunked-live migration.
class DirtyTracker {
 public:
  /// A (potential) write to `key`'s entry of roughly `approx_bytes` bytes.
  /// Re-touching a key does not grow the delta (the delta ships each dirty
  /// entry once).
  void OnWrite(StateKey key, int64_t approx_bytes) {
    if (keys_.insert(key).second) bytes_ += approx_bytes;
    ++writes_;
  }

  /// In-place growth of an already-dirty entry (e.g. an order book gaining a
  /// resting order): the extra bytes must be shipped too. A shrink ships
  /// nothing extra, and it must not cancel the first-write bytes of the keys
  /// already dirtied (the delta would go negative), so it is ignored.
  void OnGrow(int64_t delta) {
    if (delta > 0) bytes_ += delta;
  }

  int64_t dirty_bytes() const { return bytes_; }
  size_t dirty_keys() const { return keys_.size(); }
  int64_t writes() const { return writes_; }

 private:
  std::unordered_set<StateKey> keys_;
  int64_t bytes_ = 0;
  int64_t writes_ = 0;
};

/// One shard's state: opaque payload plus typed per-key user entries.
/// Move-only: a shard blob is extracted and installed exactly once per
/// migration, and an accidental deep copy would silently double the state a
/// migration appears to ship.
struct ShardState {
  ShardState() = default;
  ShardState(const ShardState&) = delete;
  ShardState& operator=(const ShardState&) = delete;
  ShardState(ShardState&&) = default;
  ShardState& operator=(ShardState&&) = default;

  int64_t base_bytes = 0;
  int64_t user_bytes = 0;
  StateTable entries;

  /// Non-owning write observer, attached by the MigrationEngine for the
  /// duration of a live pre-copy (null otherwise). Not part of the migrated
  /// payload; cleared before the blob is installed at the destination.
  DirtyTracker* dirty = nullptr;

  int64_t bytes() const { return base_bytes + user_bytes; }
};

class ProcessStateStore {
 public:
  ProcessStateStore() = default;

  /// Creates an empty shard with the given opaque payload size. Fails if the
  /// shard already exists.
  Status CreateShard(ShardId shard, int64_t base_bytes);

  bool HasShard(ShardId shard) const { return shards_.contains(shard); }

  /// Removes and returns a shard blob for migration (moved out, never
  /// copied).
  Result<ShardState> ExtractShard(ShardId shard);

  /// Installs a migrated shard blob. Fails if the shard already exists.
  Status InstallShard(ShardId shard, ShardState state);

  /// Size in bytes of one shard (0 if absent).
  int64_t ShardBytes(ShardId shard) const;

  /// Total bytes across all shards in this process.
  int64_t TotalBytes() const;

  size_t num_shards() const { return shards_.size(); }

  /// Mutable access for StateAccessor; shard must exist.
  ShardState* GetShard(ShardId shard);

  /// Read-only iteration over every shard in this store (equivalence tests
  /// compare per-key entries across backends; diagnostics dump state sizes).
  template <typename Fn>
  void ForEachShard(Fn&& fn) const {
    for (const auto& [id, state] : shards_) fn(id, state);
  }

 private:
  std::unordered_map<ShardId, ShardState> shards_;
};

/// Handle through which operator logic reads and updates the state of the
/// key it is currently processing ("state access interface ... on a per-key
/// basis", §3.2). Writes are observed by the shard's DirtyTracker when a
/// live migration is pre-copying the shard.
class StateAccessor {
 public:
  StateAccessor(ProcessStateStore* store, ShardId shard, StateKey key)
      : shard_state_(store->GetShard(shard)), key_(key) {}

  /// Returns the typed state for the current key, default-constructing it on
  /// first access. `approx_bytes` feeds the migration-cost estimate. Counts
  /// as a write for dirty tracking: callers receive a mutable pointer, and
  /// stream operators overwhelmingly update the entry they fetch. The
  /// pointer stays valid until the next insert into the same shard.
  /// CHECK-fails if the key already holds a value of another type.
  template <typename T>
  T* GetOrCreate(int64_t approx_bytes = static_cast<int64_t>(sizeof(T))) {
    auto [value, inserted] = shard_state_->entries.FindOrCreate<T>(key_);
    if (inserted) {
      shard_state_->user_bytes += approx_bytes + kEntryOverheadBytes;
    }
    if (shard_state_->dirty) {
      shard_state_->dirty->OnWrite(key_, approx_bytes + kEntryOverheadBytes);
    }
    return value;
  }

  /// Records growth of the current key's state (e.g. an order book gaining
  /// a resting order).
  void AddBytes(int64_t delta) {
    shard_state_->user_bytes += delta;
    if (shard_state_->dirty) shard_state_->dirty->OnGrow(delta);
  }

  StateKey key() const { return key_; }

  /// Per-entry bytes the migration-cost model charges on top of the value
  /// (the cost of shipping an entry), not the table's real slot overhead.
  static constexpr int64_t kEntryOverheadBytes = 48;

 private:
  ShardState* shard_state_;
  StateKey key_;
};

}  // namespace elasticutor
