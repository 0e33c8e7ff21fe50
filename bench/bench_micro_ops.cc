// google-benchmark micro-operation benchmarks: the hot-path primitives of
// the system — hashing/routing, Zipf sampling, the balancer's planning
// round, Erlang-C/Jackson evaluation, Algorithm 1, the event queue and the
// order book, keyed-state access. These bound the realism of the
// "scheduling time" results and document the cost of each building block.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "elasticutor/elasticutor.h"

namespace elasticutor {
namespace {

void BM_HashKey(benchmark::State& state) {
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashKey(++key, 3));
  }
}
BENCHMARK(BM_HashKey);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(10000, 0.5);
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue queue;
  int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.Push(t + (i * 37) % 101, []() {});
    }
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(queue.Pop());
    }
    t += 101;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_ErlangC(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MmkSojournSeconds(k, k * 900.0, 1000.0));
  }
}
BENCHMARK(BM_ErlangC)->Arg(2)->Arg(8)->Arg(32);

void BM_GreedyAllocation(benchmark::State& state) {
  int m = static_cast<int>(state.range(0));
  std::vector<ExecutorDemand> demands(m);
  Rng rng(7);
  for (auto& d : demands) {
    d.lambda = 500.0 + rng.NextDouble() * 8000.0;
    d.mu = 1000.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(AllocateCores(demands, 256, 0.05, true));
  }
}
BENCHMARK(BM_GreedyAllocation)->Arg(32)->Arg(192);

AssignmentInput AssignmentBenchInput(int m) {
  const int n = 32;
  AssignmentInput in;
  in.node_capacity.assign(n, 8);
  in.home.resize(m);
  in.target.resize(m);
  in.state_bytes.assign(m, 8e6);
  in.data_intensity.assign(m, 100e3);
  in.current = SparseAssignment(m);
  Rng rng(11);
  int total = 0;
  for (int j = 0; j < m; ++j) {
    in.home[j] = j % n;
    in.current.Add(j % n, j, 1);
    in.target[j] = 1 + static_cast<int>(rng.NextBounded(3));
    total += in.target[j];
  }
  while (total > 256) {
    int j = static_cast<int>(rng.NextBounded(m));
    if (in.target[j] > 1) {
      --in.target[j];
      --total;
    }
  }
  return in;
}

void BM_Assignment(benchmark::State& state) {
  AssignmentInput in = AssignmentBenchInput(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignment(in));
  }
}
BENCHMARK(BM_Assignment)->Arg(32)->Arg(192);

void BM_AssignmentDense(benchmark::State& state) {
  AssignmentInput in = AssignmentBenchInput(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignmentDense(in));
  }
}
BENCHMARK(BM_AssignmentDense)->Arg(32)->Arg(192);

void BM_BalancerPlan(benchmark::State& state) {
  int shards = static_cast<int>(state.range(0));
  std::vector<double> load = ZipfWeights(shards, 0.5);
  for (auto _ : state) {
    std::vector<int> assignment(shards);
    for (int s = 0; s < shards; ++s) assignment[s] = s % 8;
    benchmark::DoNotOptimize(
        balance::PlanMoves(load, &assignment, 8, 1.2, 256));
  }
}
BENCHMARK(BM_BalancerPlan)->Arg(256)->Arg(8192);

void BM_OrderBookExecute(benchmark::State& state) {
  OrderBook book;
  Rng rng(3);
  std::vector<Trade> trades;
  for (auto _ : state) {
    trades.clear();
    auto side = rng.NextBool(0.5) ? OrderBook::Side::kBuy
                                  : OrderBook::Side::kSell;
    int64_t price = 1000 + static_cast<int64_t>(rng.NextGaussian(0, 3));
    benchmark::DoNotOptimize(book.Execute(side, price, 100, &trades));
  }
}
BENCHMARK(BM_OrderBookExecute);

void BM_StateAccess(benchmark::State& state) {
  ProcessStateStore store;
  ELASTICUTOR_CHECK(store.CreateShard(0, 32768).ok());
  uint64_t key = 0;
  for (auto _ : state) {
    StateAccessor accessor(&store, 0, key++ % 1024);
    benchmark::DoNotOptimize(accessor.GetOrCreate<int64_t>());
  }
}
BENCHMARK(BM_StateAccess);

// Keyed-state access over a working set far past the caches: 2^19 keys
// spread over 128 shards by the key hash, every key created up front, then
// read-modify-written in one fixed random order. BM_StateAccess above stays
// cache-resident and cannot see the table layout.
template <size_t kValueBytes>
void BM_StateAccessWide(benchmark::State& state) {
  struct Value {
    uint64_t words[kValueBytes / sizeof(uint64_t)];
  };
  constexpr uint32_t kKeys = 1u << 19;
  constexpr int kShards = 128;
  ProcessStateStore store;
  for (ShardId s = 0; s < kShards; ++s) {
    ELASTICUTOR_CHECK(store.CreateShard(s, 0).ok());
  }
  std::vector<std::pair<ShardId, StateKey>> order(kKeys);
  for (StateKey k = 0; k < kKeys; ++k) {
    order[k] = {static_cast<ShardId>(HashKey(k) % kShards), k};
  }
  Rng rng(7);
  for (uint32_t i = kKeys - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  for (const auto& [shard, key] : order) {
    StateAccessor(&store, shard, key).GetOrCreate<Value>();
  }
  uint32_t i = 0;
  for (auto _ : state) {
    const auto& [shard, key] = order[i];
    i = (i + 1) & (kKeys - 1);
    StateAccessor accessor(&store, shard, key);
    benchmark::DoNotOptimize(++accessor.GetOrCreate<Value>()->words[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_StateAccessWide, 16);
BENCHMARK_TEMPLATE(BM_StateAccessWide, 24);

}  // namespace
}  // namespace elasticutor

BENCHMARK_MAIN();
