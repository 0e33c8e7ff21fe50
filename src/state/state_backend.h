// Pluggable state backends for the elastic executor (§3.2 design space).
//
// A StateBackend answers three questions the data path and the reassignment
// protocol used to hard-code per-enum:
//  * which ProcessStateStore a task running on a given node reads/writes,
//  * what a state access costs (and what network traffic it implies),
//  * whether moving a shard between two tasks requires a state migration
//    (and, if so, how fast a same-node copy runs).
//
// Backends:
//  * LocalSharedBackend  — the paper design: one store per process, shared
//    by all tasks of that process; only cross-process moves migrate.
//  * AlwaysMigrateBackend — ablation: per-task private state; every
//    reassignment serializes and copies, even within a process.
//  * ExternalKvBackend   — RAMCloud-style external store: a single home
//    store stands in for the KV cluster, no shard ever migrates, and every
//    tuple pays two store round trips whose bytes are attributed to
//    Purpose::kStateAccess on the simulated network.
//
// Backend selection lives here (state layer), not in the engine config enum
// zoo: EngineConfig embeds a StateLayerConfig and the executor calls
// CreateStateBackend().
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "cluster/cluster.h"  // NodeId.
#include "common/units.h"
#include "sim/time.h"
#include "state/state_store.h"

namespace elasticutor {

class Network;

enum class StateBackendKind {
  kLocalShared = 0,   // Paper design: per-process store, shared by tasks.
  kAlwaysMigrate = 1, // Per-task private state: every reassignment migrates.
  kExternalKv = 2,    // External KV: per-access RPCs, no migration.
};

const char* StateBackendName(StateBackendKind kind);

/// How shard state travels during a reassignment.
enum class MigrationStrategy {
  kSyncBlob = 0,     // Stop-the-world: pause, ship everything, resume.
  kChunkedLive = 1,  // Pre-copy fixed-size chunks while processing continues;
                     // pause only for the dirty delta + routing flip.
};

const char* MigrationStrategyName(MigrationStrategy strategy);

struct MigrationConfig {
  MigrationStrategy strategy = MigrationStrategy::kChunkedLive;
  /// Pre-copy chunk size; the pause-time flatness of chunked-live migration
  /// is insensitive to this as long as chunks are small vs the shard.
  int64_t chunk_bytes = 64 * kKiB;
};

struct StateLayerConfig {
  StateBackendKind backend = StateBackendKind::kLocalShared;
  MigrationConfig migration;
};

class StateBackend {
 public:
  virtual ~StateBackend() = default;

  virtual StateBackendKind kind() const = 0;
  const char* name() const { return StateBackendName(kind()); }

  /// Ensures a store exists for a (new) process on `node`; idempotent.
  /// Returns the store a process on `node` owns.
  virtual ProcessStateStore* AddProcess(NodeId node) = 0;

  /// Tears down the store of an emptied process on `node` (checks that no
  /// shard is left inside). No-op for backends without per-node stores.
  virtual void RemoveProcess(NodeId node) = 0;

  /// The store holding migratable shard state for a process on `node`; the
  /// MigrationEngine extracts from / installs into this.
  virtual ProcessStateStore* store(NodeId node) = 0;

  /// The store a task running on `task_node` reads and writes on the data
  /// path (for kExternalKv this is the home store regardless of the node).
  virtual ProcessStateStore* AccessStore(NodeId task_node) = 0;

  /// Charged once per processed tuple: returns extra service latency and
  /// attributes whatever network traffic the access implies.
  virtual SimDuration OnTupleAccess(NodeId task_node) = 0;

  /// True if moving a shard from a task on `from` to a task on `to`
  /// requires a state migration.
  virtual bool NeedsMigration(NodeId from, NodeId to) const = 0;

  /// Same-node migration copy rate in bytes/s (0 = free handoff). Only
  /// consulted when NeedsMigration(n, n) can be true.
  virtual double local_copy_bytes_per_sec() const { return 0.0; }

  /// Aggregate state bytes across all processes (s_j for the scheduler).
  virtual int64_t TotalBytes() const = 0;
};

/// The paper's per-process shared store (§3.2). Also the base for the
/// always-migrate ablation, which only changes the migration policy.
class LocalSharedBackend : public StateBackend {
 public:
  LocalSharedBackend() = default;

  StateBackendKind kind() const override {
    return StateBackendKind::kLocalShared;
  }
  ProcessStateStore* AddProcess(NodeId node) override;
  void RemoveProcess(NodeId node) override;
  ProcessStateStore* store(NodeId node) override;
  ProcessStateStore* AccessStore(NodeId task_node) override {
    return store(task_node);
  }
  SimDuration OnTupleAccess(NodeId) override { return 0; }
  bool NeedsMigration(NodeId from, NodeId to) const override {
    return from != to;
  }
  int64_t TotalBytes() const override;

 private:
  std::unordered_map<NodeId, ProcessStateStore> stores_;
};

/// Ablation: per-task private state — every reassignment migrates, and a
/// same-process move still pays a serialize+copy at memcpy speed.
class AlwaysMigrateBackend : public LocalSharedBackend {
 public:
  explicit AlwaysMigrateBackend(double local_copy_bytes_per_sec)
      : local_copy_bytes_per_sec_(local_copy_bytes_per_sec) {}

  StateBackendKind kind() const override {
    return StateBackendKind::kAlwaysMigrate;
  }
  bool NeedsMigration(NodeId, NodeId) const override { return true; }
  double local_copy_bytes_per_sec() const override {
    return local_copy_bytes_per_sec_;
  }

 private:
  double local_copy_bytes_per_sec_;
};

/// RAMCloud-style external KV store (§3.2 design alternative). A single
/// store homed at the executor's local node stands in for the KV cluster;
/// shards never migrate, and each processed tuple pays one read and one
/// write round trip whose request/response bytes are sent through the
/// Network under Purpose::kStateAccess.
class ExternalKvBackend : public StateBackend {
 public:
  ExternalKvBackend(NodeId home, Network* net, SimDuration access_ns,
                    int64_t value_bytes)
      : home_(home), net_(net), access_ns_(access_ns),
        value_bytes_(value_bytes) {}

  StateBackendKind kind() const override {
    return StateBackendKind::kExternalKv;
  }
  ProcessStateStore* AddProcess(NodeId) override { return &store_; }
  void RemoveProcess(NodeId) override {}
  ProcessStateStore* store(NodeId) override { return &store_; }
  ProcessStateStore* AccessStore(NodeId) override { return &store_; }
  SimDuration OnTupleAccess(NodeId task_node) override;
  bool NeedsMigration(NodeId, NodeId) const override { return false; }
  int64_t TotalBytes() const override { return store_.TotalBytes(); }

  NodeId home() const { return home_; }

 private:
  NodeId home_;
  Network* net_;  // May be null (pure unit tests): accesses cost time only.
  SimDuration access_ns_;
  int64_t value_bytes_;
  ProcessStateStore store_;
};

/// Factory: backend selection for one elastic executor homed at `home`.
/// `net` is used by kExternalKv for per-access byte attribution.
std::unique_ptr<StateBackend> CreateStateBackend(const StateLayerConfig& config,
                                                 NodeId home, Network* net);

}  // namespace elasticutor
