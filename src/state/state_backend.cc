#include "state/state_backend.h"

#include "net/network.h"

namespace elasticutor {

namespace {

/// kExternalKv: latency of one store access (one read or one write).
constexpr SimDuration kExternalAccessNs = Micros(150);
/// kExternalKv: approximate payload of one KV request/response message.
constexpr int64_t kExternalValueBytes = 128;
/// kAlwaysMigrate: same-node serialize+copy rate, ~2 GB/s memcpy+serde.
constexpr double kLocalCopyBytesPerSec = 2e9;

}  // namespace

const char* StateBackendName(StateBackendKind kind) {
  switch (kind) {
    case StateBackendKind::kLocalShared:
      return "local-shared";
    case StateBackendKind::kAlwaysMigrate:
      return "always-migrate";
    case StateBackendKind::kExternalKv:
      return "external-kv";
  }
  return "?";
}

const char* MigrationStrategyName(MigrationStrategy strategy) {
  switch (strategy) {
    case MigrationStrategy::kSyncBlob:
      return "sync-blob";
    case MigrationStrategy::kChunkedLive:
      return "chunked-live";
  }
  return "?";
}

ProcessStateStore* LocalSharedBackend::AddProcess(NodeId node) {
  return &stores_[node];
}

void LocalSharedBackend::RemoveProcess(NodeId node) {
  auto it = stores_.find(node);
  if (it == stores_.end()) return;
  ELASTICUTOR_CHECK_MSG(it->second.num_shards() == 0,
                        "process store torn down with shards inside");
  stores_.erase(it);
}

ProcessStateStore* LocalSharedBackend::store(NodeId node) {
  auto it = stores_.find(node);
  ELASTICUTOR_CHECK_MSG(it != stores_.end(), "no process on node");
  return &it->second;
}

int64_t LocalSharedBackend::TotalBytes() const {
  int64_t total = 0;
  for (const auto& [node, store] : stores_) total += store.TotalBytes();
  return total;
}

SimDuration ExternalKvBackend::OnTupleAccess(NodeId task_node) {
  if (net_ != nullptr) {
    // Read request + write payload toward the store, then the read value +
    // write ack back. The response is chained on the request's delivery so
    // the store's egress is consumed at the physically right time; the
    // fixed per-access latency below stands in for the full round trips so
    // the data path stays synchronous.
    Network* net = net_;
    NodeId home = home_;
    int64_t bytes = value_bytes_;
    net->Send(task_node, home, bytes, Purpose::kStateAccess,
              [net, home, task_node, bytes]() {
                net->Send(home, task_node, bytes, Purpose::kStateAccess,
                          []() {});
              });
  }
  return 2 * access_ns_;
}

std::unique_ptr<StateBackend> CreateStateBackend(const StateLayerConfig& config,
                                                 NodeId home, Network* net) {
  switch (config.backend) {
    case StateBackendKind::kLocalShared:
      return std::make_unique<LocalSharedBackend>();
    case StateBackendKind::kAlwaysMigrate:
      return std::make_unique<AlwaysMigrateBackend>(kLocalCopyBytesPerSec);
    case StateBackendKind::kExternalKv:
      return std::make_unique<ExternalKvBackend>(
          home, net, kExternalAccessNs, kExternalValueBytes);
  }
  ELASTICUTOR_CHECK_MSG(false, "unknown state backend kind");
  return nullptr;
}

}  // namespace elasticutor
