// LabelBarrier — consumer-side bookkeeping for the in-channel labeling
// barrier of the elastic reassignment protocol (paper §3.3, native
// incarnation).
//
// When a shard's routing flips, every producer that can reach the old
// owner pushes one labeling marker (TupleBatchStorage::label_id) into that
// owner's channel, *behind* everything it already routed there. The old
// owner arms a barrier for `expected` = the number of open producers at
// flip time; each marker it pops decrements the count. Because each
// channel is FIFO per producer, the barrier completing proves that every
// pre-flip tuple of the migrating shard has been consumed — the drain the
// paper implements with a labeling tuple per task queue.
//
// The class is deliberately dumb: no locking (callers hold their own
// control mutex) and no knowledge of channels. Markers for unknown ids
// (a completed barrier's late markers) are ignored.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/status.h"

namespace elasticutor {
namespace exec {

class LabelBarrier {
 public:
  /// Arms a barrier: `expected` markers carrying `label_id` must be
  /// observed before it completes. Returns false (and arms nothing) when
  /// `expected` is zero — there is nobody to wait for and the caller can
  /// treat the drain as already complete.
  bool Arm(int64_t label_id, int expected) {
    ELASTICUTOR_CHECK(expected >= 0);
    ELASTICUTOR_CHECK_MSG(pending_.find(label_id) == pending_.end(),
                          "label id armed twice");
    if (expected == 0) return false;
    pending_.emplace(label_id, expected);
    return true;
  }

  /// One marker observed. True iff this was the last expected marker of an
  /// armed barrier (the barrier completes and is forgotten). Markers of
  /// unknown or cancelled ids return false and are dropped.
  bool OnLabel(int64_t label_id) {
    auto it = pending_.find(label_id);
    if (it == pending_.end()) return false;
    if (--it->second > 0) return false;
    pending_.erase(it);
    return true;
  }

  bool armed(int64_t label_id) const {
    return pending_.find(label_id) != pending_.end();
  }

  /// Markers still outstanding for `label_id` (0 when not armed).
  int outstanding(int64_t label_id) const {
    auto it = pending_.find(label_id);
    return it == pending_.end() ? 0 : it->second;
  }

 private:
  std::unordered_map<int64_t, int> pending_;
};

}  // namespace exec
}  // namespace elasticutor
