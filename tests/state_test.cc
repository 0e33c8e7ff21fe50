// Unit tests for the state layer: the per-shard StateTable, the per-process
// store + StateAccessor, the pluggable StateBackend implementations, and the
// MigrationEngine (chunk/byte accounting, dirty-delta tracking under
// concurrent writes, sync-blob vs chunked-live semantics).
#include <gtest/gtest.h>

#include <any>
#include <cstddef>
#include <limits>
#include <map>
#include <type_traits>
#include <vector>

#include "net/network.h"
#include "exec/sim_backend.h"
#include "state/migration_engine.h"
#include "state/state_backend.h"
#include "state/state_store.h"
#include "state/state_table.h"

namespace elasticutor {
namespace {

// Shard blobs move, never copy: an accidental deep copy would double the
// state a migration appears to ship.
static_assert(!std::is_copy_constructible_v<ShardState>);
static_assert(!std::is_copy_assignable_v<ShardState>);
static_assert(std::is_move_constructible_v<ShardState>);
static_assert(std::is_move_assignable_v<ShardState>);

// ---- StateTable ----

struct Triple {
  uint64_t a = 0, b = 0, c = 0;
};

TEST(StateTableTest, GrowsTo100kKeysKeepingEveryValue) {
  StateTable table;
  EXPECT_EQ(table.capacity(), 0u);  // Nothing allocated until an insert.
  constexpr uint64_t kKeys = 100000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    auto [value, inserted] = table.FindOrCreate<Triple>(k * 7919);
    ASSERT_TRUE(inserted);
    *value = {k, 2 * k, 3 * k};
    if (k == 0) EXPECT_EQ(table.capacity(), 4u);
  }
  EXPECT_EQ(table.size(), kKeys);
  EXPECT_EQ(table.capacity(), 262144u);  // Power of two, at most 3/4 full.
  for (uint64_t k = 0; k < kKeys; ++k) {
    auto [value, inserted] = table.FindOrCreate<Triple>(k * 7919);
    ASSERT_FALSE(inserted);
    ASSERT_EQ(value->a, k);
    ASSERT_EQ(value->b, 2 * k);
    ASSERT_EQ(value->c, 3 * k);
  }
}

TEST(StateTableTest, ExtremeKeys) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(0, 0).ok());
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  *StateAccessor(&store, 0, 0).GetOrCreate<int64_t>() = 11;
  *StateAccessor(&store, 0, kMax).GetOrCreate<int64_t>() = 22;
  // Enough other keys to force growth and probe runs past both.
  for (uint64_t k = 1; k <= 64; ++k) {
    *StateAccessor(&store, 0, kMax - k).GetOrCreate<int64_t>() = 1;
  }
  EXPECT_EQ(*StateAccessor(&store, 0, 0).GetOrCreate<int64_t>(), 11);
  EXPECT_EQ(*StateAccessor(&store, 0, kMax).GetOrCreate<int64_t>(), 22);
  EXPECT_EQ(store.GetShard(0)->entries.size(), 66u);
}

// Counts constructions and live instances of a value type, so a test can
// see each value destroyed exactly once across relocation and moves.
template <size_t kBytes, bool kNothrowMove>
struct Counted {
  static inline int64_t live = 0;
  static inline int64_t constructed = 0;

  Counted() { Born(); }
  Counted(const Counted& other) : id(other.id) { Born(); }
  Counted(Counted&& other) noexcept(kNothrowMove) : id(other.id) { Born(); }
  Counted& operator=(const Counted&) = default;
  ~Counted() { --live; }

  static void Born() {
    ++live;
    ++constructed;
  }

  uint64_t id = 0;
  std::byte pad[kBytes - sizeof(uint64_t)] = {};
};

using InSlotCounted = Counted<16, true>;
using BigCounted = Counted<32, true>;
using ThrowingMoveCounted = Counted<16, false>;
static_assert(StateTable::kInSlot<InSlotCounted>);
static_assert(!StateTable::kInSlot<BigCounted>);
static_assert(!StateTable::kInSlot<ThrowingMoveCounted>);
static_assert(StateTable::kInSlot<int64_t>);
static_assert(StateTable::kInSlot<Triple>);

template <typename T>
void ExpectEachValueDestroyedOnce() {
  T::live = 0;
  T::constructed = 0;
  constexpr uint64_t kKeys = 1000;
  {
    ProcessStateStore store;
    ASSERT_TRUE(store.CreateShard(0, 0).ok());
    for (uint64_t k = 0; k < kKeys; ++k) {  // Grows 4 -> 2048 slots.
      StateAccessor(&store, 0, k).GetOrCreate<T>()->id = k;
    }
    EXPECT_EQ(T::live, static_cast<int64_t>(kKeys));

    StateTable moved = std::move(store.GetShard(0)->entries);
    EXPECT_EQ(store.GetShard(0)->entries.size(), 0u);
    store.GetShard(0)->entries = std::move(moved);
    EXPECT_EQ(T::live, static_cast<int64_t>(kKeys));

    ProcessStateStore other;
    Result<ShardState> blob = store.ExtractShard(0);
    ASSERT_TRUE(blob.ok());
    ASSERT_TRUE(other.InstallShard(0, std::move(blob).value()).ok());
    EXPECT_EQ(T::live, static_cast<int64_t>(kKeys));
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(StateAccessor(&other, 0, k).GetOrCreate<T>()->id, k);
    }
    EXPECT_EQ(T::live, static_cast<int64_t>(kKeys));
    if constexpr (!StateTable::kInSlot<T>) {
      // Heap values never move: growth and shard moves shift pointers.
      EXPECT_EQ(T::constructed, static_cast<int64_t>(kKeys));
    }
  }  // Both stores destroyed.
  EXPECT_EQ(T::live, 0);
}

TEST(StateTableTest, InSlotValuesDestroyedExactlyOnce) {
  ExpectEachValueDestroyedOnce<InSlotCounted>();
}

TEST(StateTableTest, OversizedHeapValuesDestroyedExactlyOnce) {
  ExpectEachValueDestroyedOnce<BigCounted>();
}

TEST(StateTableTest, ThrowingMoveHeapValuesDestroyedExactlyOnce) {
  ExpectEachValueDestroyedOnce<ThrowingMoveCounted>();
}

TEST(StateTableTest, IterationYieldsEachKeyOnceWithValueCopies) {
  StateTable table;
  EXPECT_EQ(table.begin(), table.end());
  for (uint64_t k = 0; k < 1000; ++k) {
    *table.FindOrCreate<int64_t>(k * 3).first = static_cast<int64_t>(k);
  }
  std::map<StateKey, int64_t> seen;
  for (const auto& [key, value] : table) {
    const int64_t* counter = std::any_cast<int64_t>(&value);
    ASSERT_NE(counter, nullptr);
    EXPECT_TRUE(seen.emplace(key, *counter).second) << "key " << key;
  }
  ASSERT_EQ(seen.size(), 1000u);
  for (const auto& [key, counter] : seen) {
    EXPECT_EQ(key, static_cast<StateKey>(counter) * 3);
  }
}

TEST(StateTableDeathTest, TypeMismatchChecks) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(0, 0).ok());
  StateAccessor a(&store, 0, 1);
  a.GetOrCreate<int64_t>();
  EXPECT_DEATH(a.GetOrCreate<double>(), "state type mismatch");
  EXPECT_DEATH(a.GetOrCreate<BigCounted>(), "state type mismatch");
}

// ---- ProcessStateStore / StateAccessor ----

TEST(StateStoreTest, CreateAndAccount) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(1, 32768).ok());
  EXPECT_TRUE(store.HasShard(1));
  EXPECT_EQ(store.ShardBytes(1), 32768);
  EXPECT_EQ(store.TotalBytes(), 32768);
  EXPECT_EQ(store.num_shards(), 1u);
}

TEST(StateStoreTest, DuplicateCreateFails) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(1, 10).ok());
  EXPECT_EQ(store.CreateShard(1, 10).code(), StatusCode::kAlreadyExists);
}

TEST(StateAccessorTest, PerKeyIsolation) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(0, 0).ok());
  {
    StateAccessor a(&store, 0, 1);
    *a.GetOrCreate<int64_t>() = 10;
  }
  {
    StateAccessor b(&store, 0, 2);
    EXPECT_EQ(*b.GetOrCreate<int64_t>(), 0);  // Fresh state for key 2.
  }
  {
    StateAccessor a(&store, 0, 1);
    EXPECT_EQ(*a.GetOrCreate<int64_t>(), 10);
  }
}

TEST(StateAccessorTest, UserBytesGrowWithEntries) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(0, 0).ok());
  int64_t before = store.ShardBytes(0);
  for (uint64_t k = 0; k < 10; ++k) {
    StateAccessor a(&store, 0, k);
    a.GetOrCreate<int64_t>();
  }
  EXPECT_GT(store.ShardBytes(0), before);
  // Re-access does not double count.
  int64_t after = store.ShardBytes(0);
  for (uint64_t k = 0; k < 10; ++k) {
    StateAccessor a(&store, 0, k);
    a.GetOrCreate<int64_t>();
  }
  EXPECT_EQ(store.ShardBytes(0), after);
}

TEST(StateAccessorTest, AddBytesAdjustsFootprint) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(0, 0).ok());
  StateAccessor a(&store, 0, 5);
  a.GetOrCreate<int64_t>();
  int64_t before = store.ShardBytes(0);
  a.AddBytes(512);
  EXPECT_EQ(store.ShardBytes(0), before + 512);
}

TEST(DirtyTrackerTest, DedupesKeysAndAccumulatesGrowth) {
  DirtyTracker tracker;
  tracker.OnWrite(1, 100);
  tracker.OnWrite(1, 100);  // Re-touch: no new delta bytes.
  tracker.OnWrite(2, 50);
  tracker.OnGrow(8);
  EXPECT_EQ(tracker.dirty_keys(), 2u);
  EXPECT_EQ(tracker.dirty_bytes(), 158);
  EXPECT_EQ(tracker.writes(), 3);
}

TEST(DirtyTrackerTest, ShrinkNeverCancelsFirstWriteBytes) {
  DirtyTracker tracker;
  tracker.OnWrite(1, 100);
  tracker.OnGrow(-500);  // An entry losing bytes ships nothing extra.
  EXPECT_EQ(tracker.dirty_bytes(), 100);
}

TEST(StateAccessorTest, WritesFeedAttachedDirtyTracker) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(0, 1000).ok());
  DirtyTracker tracker;
  store.GetShard(0)->dirty = &tracker;
  {
    StateAccessor a(&store, 0, 7);
    *a.GetOrCreate<int64_t>() = 1;
    a.AddBytes(64);
  }
  EXPECT_EQ(tracker.dirty_keys(), 1u);
  EXPECT_EQ(tracker.dirty_bytes(),
            static_cast<int64_t>(sizeof(int64_t)) +
                StateAccessor::kEntryOverheadBytes + 64);
  store.GetShard(0)->dirty = nullptr;
  {
    StateAccessor a(&store, 0, 8);
    a.GetOrCreate<int64_t>();
  }
  EXPECT_EQ(tracker.dirty_keys(), 1u);  // Detached: no further tracking.
}

// ---- MigrationEngine ----

NetworkConfig MigNetConfig() {
  NetworkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s: easy arithmetic.
  cfg.propagation_ns = Micros(100);
  cfg.intra_node_ns = Micros(10);
  cfg.per_message_overhead_bytes = 0;
  return cfg;
}

struct MigrationRig {
  exec::SimBackend sim;
  Network net;
  MigrationEngine engine;
  ProcessStateStore src, dst;

  explicit MigrationRig(MigrationConfig cfg = MigrationConfig{})
      : net(&sim, 4, MigNetConfig()), engine(&sim, &net, cfg) {}
};

TEST(MigrationEngineTest, SyncBlobShipsEverythingInThePause) {
  MigrationRig rig;
  ASSERT_TRUE(rig.src.CreateShard(2, 100 * 1000).ok());
  MigrationStats stats;
  bool done = false;
  rig.engine.MigrateSync(&rig.src, &rig.dst, 2, /*from=*/0, /*to=*/1,
                         /*local_copy_bytes_per_sec=*/0.0,
                         [&](const MigrationStats& s) {
                           stats = s;
                           done = true;
                         });
  rig.sim.RunAll();
  ASSERT_TRUE(done);
  EXPECT_FALSE(rig.src.HasShard(2));
  EXPECT_TRUE(rig.dst.HasShard(2));
  EXPECT_EQ(rig.dst.ShardBytes(2), 100 * 1000);
  EXPECT_TRUE(stats.inter_node);
  EXPECT_EQ(stats.chunks, 0);  // Nothing pre-copies under sync-blob.
  EXPECT_EQ(stats.precopy_bytes, 0);
  EXPECT_EQ(stats.delta_bytes, 100 * 1000);
  EXPECT_EQ(stats.moved_bytes, 100 * 1000);
  // 100 KB at 1 MB/s = 100 ms transmission + propagation: a full pause.
  EXPECT_EQ(stats.finalize_ns, Millis(100) + Micros(100));
  EXPECT_EQ(rig.net.inter_node_bytes(Purpose::kStateMigration), 100 * 1000);
}

TEST(MigrationEngineTest, SameNodeFreeHandoffIsSynchronous) {
  MigrationRig rig;
  ASSERT_TRUE(rig.src.CreateShard(3, 64 * kKiB).ok());
  bool done = false;
  rig.engine.MigrateSync(&rig.src, &rig.dst, 3, /*from=*/1, /*to=*/1, 0.0,
                         [&](const MigrationStats& s) {
                           EXPECT_FALSE(s.inter_node);
                           EXPECT_EQ(s.finalize_ns, 0);
                           done = true;
                         });
  EXPECT_TRUE(done);  // No event needed: intra-process handoff is free.
  EXPECT_TRUE(rig.dst.HasShard(3));
  EXPECT_EQ(rig.net.inter_node_bytes(Purpose::kStateMigration), 0);
}

TEST(MigrationEngineTest, ChunkedPrecopyChunkAndByteAccounting) {
  MigrationConfig cfg;
  cfg.strategy = MigrationStrategy::kChunkedLive;
  cfg.chunk_bytes = 64 * kKiB;
  MigrationRig rig(cfg);
  ASSERT_TRUE(rig.src.CreateShard(7, 256 * kKiB).ok());
  bool precopied = false;
  auto handle = rig.engine.Begin(&rig.src, 7, /*from=*/0, /*to=*/1, 0.0,
                                 [&]() { precopied = true; });
  rig.sim.RunAll();
  ASSERT_TRUE(precopied);
  ASSERT_TRUE(handle->precopy_done());
  EXPECT_EQ(handle->stats().chunks, 4);  // 256 KB / 64 KB.
  EXPECT_EQ(handle->stats().precopy_bytes, 256 * kKiB);
  EXPECT_GT(handle->stats().precopy_ns, 0);
  // The shard never left the source during pre-copy.
  EXPECT_TRUE(rig.src.HasShard(7));

  MigrationStats stats;
  bool done = false;
  rig.engine.Finalize(handle, &rig.dst, [&](const MigrationStats& s) {
    stats = s;
    done = true;
  });
  rig.sim.RunAll();
  ASSERT_TRUE(done);
  EXPECT_TRUE(rig.dst.HasShard(7));
  EXPECT_FALSE(rig.src.HasShard(7));
  EXPECT_EQ(stats.delta_bytes, 0);  // Nothing written while pre-copying.
  EXPECT_EQ(stats.moved_bytes, 256 * kKiB);
  EXPECT_EQ(stats.finalize_ns, 0);  // Empty delta: instant flip.
  EXPECT_EQ(rig.net.inter_node_bytes(Purpose::kStateMigration), 256 * kKiB);
  EXPECT_EQ(rig.engine.chunks_shipped(), 4);
  EXPECT_EQ(rig.engine.bytes_shipped(), 256 * kKiB);
  EXPECT_EQ(rig.engine.migrations_begun(), 1);
  EXPECT_EQ(rig.engine.migrations_completed(), 1);
}

TEST(MigrationEngineTest, DirtyDeltaReplayedUnderConcurrentWrites) {
  MigrationConfig cfg;
  cfg.strategy = MigrationStrategy::kChunkedLive;
  cfg.chunk_bytes = 16 * kKiB;
  MigrationRig rig(cfg);
  ASSERT_TRUE(rig.src.CreateShard(9, 128 * kKiB).ok());
  // Pre-copy takes ~128 ms at 1 MB/s; writes land while chunks stream.
  auto handle = rig.engine.Begin(&rig.src, 9, /*from=*/0, /*to=*/1, 0.0,
                                 nullptr);
  for (int i = 0; i < 5; ++i) {
    rig.sim.After(Millis(10 * (i + 1)), [&rig, i]() {
      StateAccessor a(&rig.src, 9, /*key=*/100 + i);
      *a.GetOrCreate<int64_t>() = 1000 + i;
    });
  }
  rig.sim.RunAll();
  ASSERT_TRUE(handle->precopy_done());
  EXPECT_EQ(handle->dirty().dirty_keys(), 5u);
  const int64_t per_entry = static_cast<int64_t>(sizeof(int64_t)) +
                            StateAccessor::kEntryOverheadBytes;
  EXPECT_EQ(handle->dirty().dirty_bytes(), 5 * per_entry);

  MigrationStats stats;
  rig.engine.Finalize(handle, &rig.dst,
                      [&](const MigrationStats& s) { stats = s; });
  rig.sim.RunAll();
  EXPECT_EQ(stats.delta_bytes, 5 * per_entry);
  EXPECT_EQ(stats.moved_bytes, stats.precopy_bytes + 5 * per_entry);
  EXPECT_GT(stats.finalize_ns, 0);  // The delta ships inside the pause.
  EXPECT_LT(stats.finalize_ns, Millis(5));  // ... but it is tiny.
  // Correctness: every concurrent write is present at the destination.
  for (int i = 0; i < 5; ++i) {
    StateAccessor a(&rig.dst, 9, 100 + i);
    EXPECT_EQ(*a.GetOrCreate<int64_t>(), 1000 + i);
  }
}

// Regression: an entry that shrinks while its shard pre-copies (an SSE
// order book losing price levels) drove the dirty delta negative, so
// Finalize recorded a negative delta_bytes and bytes_shipped() went down.
TEST(MigrationEngineTest, ShrinkDuringPrecopyKeepsDeltaNonNegative) {
  MigrationConfig cfg;
  cfg.strategy = MigrationStrategy::kChunkedLive;
  cfg.chunk_bytes = 16 * kKiB;
  MigrationRig rig(cfg);
  ASSERT_TRUE(rig.src.CreateShard(5, 64 * kKiB).ok());
  {
    StateAccessor a(&rig.src, 5, /*key=*/1);
    a.GetOrCreate<int64_t>();
    a.AddBytes(4096);  // A large entry before the move starts.
  }
  std::vector<int64_t> shipped;
  auto sample = [&]() { shipped.push_back(rig.engine.bytes_shipped()); };
  // Pre-copy takes ~70 ms at 1 MB/s; the entry shrinks 10 ms in.
  auto handle = rig.engine.Begin(&rig.src, 5, /*from=*/0, /*to=*/1, 0.0,
                                 nullptr);
  rig.sim.After(Millis(10), [&rig]() {
    StateAccessor a(&rig.src, 5, /*key=*/1);
    a.GetOrCreate<int64_t>();
    a.AddBytes(-4096);
  });
  for (int ms = 5; ms <= 100; ms += 5) rig.sim.After(Millis(ms), sample);
  rig.sim.RunAll();
  ASSERT_TRUE(handle->precopy_done());

  MigrationStats stats;
  rig.engine.Finalize(handle, &rig.dst,
                      [&](const MigrationStats& s) { stats = s; });
  sample();
  rig.sim.RunAll();
  sample();
  const int64_t per_entry = static_cast<int64_t>(sizeof(int64_t)) +
                            StateAccessor::kEntryOverheadBytes;
  EXPECT_EQ(stats.delta_bytes, per_entry);  // The first write still ships.
  EXPECT_EQ(stats.moved_bytes, stats.precopy_bytes + per_entry);
  for (size_t i = 1; i < shipped.size(); ++i) {
    EXPECT_GE(shipped[i], shipped[i - 1]) << "sample " << i;
  }
}

TEST(MigrationEngineTest, SameNodeChunkedCopyPaysLocalRate) {
  MigrationConfig cfg;
  cfg.strategy = MigrationStrategy::kChunkedLive;
  MigrationRig rig(cfg);
  ASSERT_TRUE(rig.src.CreateShard(4, 2 * kMiB).ok());
  auto handle = rig.engine.Begin(&rig.src, 4, /*from=*/2, /*to=*/2,
                                 /*local_copy_bytes_per_sec=*/2e9, nullptr);
  rig.sim.RunAll();
  ASSERT_TRUE(handle->precopy_done());
  // 2 MiB at 2 GB/s ~= 1.05 ms of serialize+copy, no network traffic.
  EXPECT_GT(handle->stats().precopy_ns, Micros(900));
  EXPECT_EQ(rig.net.inter_node_bytes(Purpose::kStateMigration), 0);
  bool done = false;
  rig.engine.Finalize(handle, &rig.dst,
                      [&](const MigrationStats&) { done = true; });
  rig.sim.RunAll();
  EXPECT_TRUE(done);
  EXPECT_TRUE(rig.dst.HasShard(4));
}

TEST(MigrationEngineTest, MigrationPreservesUserEntries) {
  MigrationRig rig;
  ASSERT_TRUE(rig.src.CreateShard(3, 1000).ok());
  {
    StateAccessor accessor(&rig.src, 3, /*key=*/42);
    *accessor.GetOrCreate<int64_t>() = 7;
  }
  bool done = false;
  rig.engine.MigrateSync(&rig.src, &rig.dst, 3, 0, 1, 0.0,
                         [&](const MigrationStats&) { done = true; });
  rig.sim.RunAll();
  ASSERT_TRUE(done);
  StateAccessor accessor(&rig.dst, 3, 42);
  EXPECT_EQ(*accessor.GetOrCreate<int64_t>(), 7);
}

TEST(MigrationEngineTest, MissingShardNotFoundThroughStore) {
  ProcessStateStore store;
  EXPECT_FALSE(store.HasShard(2));
  ASSERT_TRUE(store.CreateShard(2, 100).ok());
  EXPECT_TRUE(store.HasShard(2));
  EXPECT_EQ(store.ShardBytes(5), 0);  // Absent shard: zero bytes.
}

// ---- StateBackend implementations ----

TEST(StateBackendTest, LocalSharedProcessLifecycle) {
  LocalSharedBackend backend;
  ProcessStateStore* home = backend.AddProcess(0);
  EXPECT_EQ(backend.AddProcess(0), home);  // Idempotent.
  ASSERT_TRUE(home->CreateShard(1, 500).ok());
  ProcessStateStore* remote = backend.AddProcess(1);
  EXPECT_NE(home, remote);
  EXPECT_EQ(backend.AccessStore(0), home);
  EXPECT_EQ(backend.AccessStore(1), remote);
  EXPECT_EQ(backend.TotalBytes(), 500);
  EXPECT_FALSE(backend.NeedsMigration(0, 0));  // Intra-process sharing.
  EXPECT_TRUE(backend.NeedsMigration(0, 1));
  EXPECT_EQ(backend.OnTupleAccess(1), 0);
  EXPECT_DOUBLE_EQ(backend.local_copy_bytes_per_sec(), 0.0);
  backend.RemoveProcess(1);  // Empty: fine.
}

TEST(StateBackendTest, AlwaysMigratePolicy) {
  AlwaysMigrateBackend backend(2e9);
  EXPECT_TRUE(backend.NeedsMigration(0, 0));  // Even same-process moves.
  EXPECT_TRUE(backend.NeedsMigration(0, 1));
  EXPECT_DOUBLE_EQ(backend.local_copy_bytes_per_sec(), 2e9);
  EXPECT_EQ(backend.kind(), StateBackendKind::kAlwaysMigrate);
}

TEST(StateBackendTest, ExternalKvRoutesEveryNodeToHomeStore) {
  ExternalKvBackend backend(/*home=*/0, /*net=*/nullptr, Micros(150), 128);
  ProcessStateStore* store = backend.AddProcess(0);
  EXPECT_EQ(backend.AddProcess(3), store);   // One store for the cluster.
  EXPECT_EQ(backend.AccessStore(2), store);  // Remote tasks read it too.
  EXPECT_FALSE(backend.NeedsMigration(0, 3));
  EXPECT_EQ(backend.OnTupleAccess(2), 2 * Micros(150));  // Read + write.
}

TEST(StateBackendTest, ExternalKvAttributesAccessBytesToNetwork) {
  exec::SimBackend sim;
  Network net(&sim, 4, MigNetConfig());
  ExternalKvBackend backend(/*home=*/0, &net, Micros(150), 128);
  // A task on a remote node: the read/write round trip crosses the wire.
  backend.OnTupleAccess(/*task_node=*/2);
  sim.RunAll();
  EXPECT_EQ(net.inter_node_bytes(Purpose::kStateAccess), 2 * 128);
  // A task co-located with the store: loopback accounting only.
  backend.OnTupleAccess(/*task_node=*/0);
  sim.RunAll();
  EXPECT_EQ(net.intra_node_bytes(Purpose::kStateAccess), 2 * 128);
}

TEST(StateBackendTest, FactorySelectsBackend) {
  StateLayerConfig config;
  config.backend = StateBackendKind::kLocalShared;
  EXPECT_EQ(CreateStateBackend(config, 0, nullptr)->kind(),
            StateBackendKind::kLocalShared);
  config.backend = StateBackendKind::kAlwaysMigrate;
  EXPECT_EQ(CreateStateBackend(config, 0, nullptr)->kind(),
            StateBackendKind::kAlwaysMigrate);
  config.backend = StateBackendKind::kExternalKv;
  EXPECT_EQ(CreateStateBackend(config, 0, nullptr)->kind(),
            StateBackendKind::kExternalKv);
  EXPECT_STREQ(StateBackendName(StateBackendKind::kExternalKv), "external-kv");
  EXPECT_STREQ(MigrationStrategyName(MigrationStrategy::kChunkedLive),
               "chunked-live");
}

}  // namespace
}  // namespace elasticutor
