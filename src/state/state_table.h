// Flat open-addressing table of one shard's typed per-key values (the
// `entries` of a ShardState). Every tuple's state access lands here, and in
// a large keyed state each access is a cache miss, so the layout aims at one
// miss per access:
//  * one array of 40-byte slots: the key, a per-type ops pointer (null marks
//    an empty slot) and a 24-byte value buffer;
//  * a value lives in the slot itself when it is at most 24 bytes, at most
//    8-byte aligned and nothrow-movable; any other value lives on the heap
//    behind a pointer kept in the buffer;
//  * linear probing over a power-of-two capacity kept at most 3/4 full;
//    4 slots are allocated on the first insert, and the table doubles when
//    it would pass 3/4.
// Entries are never erased (a shard leaves a store whole), so there are no
// tombstones. Moving a table steals its slot array: O(1), no value moves.
#pragma once

#include <any>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/hash.h"
#include "common/status.h"

namespace elasticutor {

using StateKey = uint64_t;

class StateTable {
 public:
  /// Bytes of value storage inside each slot.
  static constexpr size_t kInlineBytes = 24;

  /// Whether a T is stored in the slot itself rather than on the heap.
  template <typename T>
  static constexpr bool kInSlot = sizeof(T) <= kInlineBytes &&
                                  alignof(T) <= alignof(uint64_t) &&
                                  std::is_nothrow_move_constructible_v<T>;

 private:
  /// Type-erased operations on one value type, shared by all its slots. The
  /// address doubles as the type's identity for the mismatch check.
  struct ValueOps {
    void (*destroy)(void* buf);
    /// Move-constructs the value into `dst` and destroys the one in `src`.
    void (*relocate)(void* dst, void* src);
    std::any (*copy)(const void* buf);
  };

  struct Slot {
    StateKey key = 0;
    const ValueOps* ops = nullptr;  // Null: empty slot.
    alignas(uint64_t) std::byte value[kInlineBytes];
  };

 public:
  StateTable() = default;
  StateTable(const StateTable&) = delete;
  StateTable& operator=(const StateTable&) = delete;
  StateTable(StateTable&& other) noexcept { Steal(&other); }
  StateTable& operator=(StateTable&& other) noexcept {
    if (this != &other) {
      Clear();
      Steal(&other);
    }
    return *this;
  }
  ~StateTable() { Clear(); }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

  /// Returns `key`'s value, value-initializing a T first if the key is
  /// absent, and whether it was inserted. CHECK-fails if the key holds a
  /// value of another type. The pointer stays valid until the next insert
  /// into this table (an insert may grow the table and relocate values).
  template <typename T>
  std::pair<T*, bool> FindOrCreate(StateKey key) {
    const ValueOps* ops = &kOps<T>;
    Slot* slot = Probe(key);
    const bool inserted = slot == nullptr || slot->ops == nullptr;
    if (inserted) {
      if (4 * (size_ + 1) > 3 * capacity_) slot = GrowAndProbe(key);
      if constexpr (kInSlot<T>) {
        ::new (slot->value) T{};
      } else {
        T* heap = new T{};
        std::memcpy(slot->value, &heap, sizeof(heap));
      }
      slot->key = key;
      slot->ops = ops;
      ++size_;
    }
    ELASTICUTOR_CHECK_MSG(slot->ops == ops, "state type mismatch for key");
    return {Payload<T>(slot->value), inserted};
  }

  /// Read-only iteration yielding `std::pair<StateKey, std::any>` by value:
  /// each dereference copies the entry's value into a fresh std::any, so it
  /// is for oracles and diagnostics, not the data path.
  class Iterator {
   public:
    std::pair<StateKey, std::any> operator*() const {
      return {slot_->key, slot_->ops->copy(slot_->value)};
    }
    Iterator& operator++() {
      ++slot_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return slot_ == other.slot_;
    }

   private:
    friend class StateTable;
    Iterator(const Slot* slot, const Slot* end) : slot_(slot), end_(end) {
      SkipEmpty();
    }
    void SkipEmpty() {
      while (slot_ != end_ && slot_->ops == nullptr) ++slot_;
    }

    const Slot* slot_;
    const Slot* end_;
  };

  Iterator begin() const {
    return Iterator(slots_.get(), slots_.get() + capacity_);
  }
  Iterator end() const {
    return Iterator(slots_.get() + capacity_, slots_.get() + capacity_);
  }

 private:
  template <typename T>
  static T* Payload(void* buf) {
    if constexpr (kInSlot<T>) {
      return std::launder(reinterpret_cast<T*>(buf));
    } else {
      T* heap = nullptr;
      std::memcpy(&heap, buf, sizeof(heap));
      return heap;
    }
  }

  template <typename T>
  static void Destroy(void* buf) {
    if constexpr (kInSlot<T>) {
      Payload<T>(buf)->~T();
    } else {
      delete Payload<T>(buf);
    }
  }

  template <typename T>
  static void Relocate(void* dst, void* src) {
    if constexpr (kInSlot<T>) {
      T* from = Payload<T>(src);
      ::new (dst) T(std::move(*from));
      from->~T();
    } else {
      std::memcpy(dst, src, sizeof(T*));
    }
  }

  template <typename T>
  static std::any Copy(const void* buf) {
    return std::any(*Payload<T>(const_cast<void*>(buf)));
  }

  template <typename T>
  static constexpr ValueOps kOps = {&Destroy<T>, &Relocate<T>, &Copy<T>};

  /// Slot hash, independent of the key partitioner: every key of a shard
  /// shares `HashKey(key, salt) % num_shards`, so reusing that hash would
  /// pile a shard's keys onto few slots.
  static size_t SlotOf(StateKey key) {
    return static_cast<size_t>(Mix64(key ^ 0xd1b54a32d192ed03ULL));
  }

  /// The slot holding `key`, or the empty slot where it would go; null if
  /// no slots are allocated. The load bound guarantees an empty slot.
  Slot* Probe(StateKey key) const {
    if (capacity_ == 0) return nullptr;
    const size_t mask = capacity_ - 1;
    for (size_t i = SlotOf(key) & mask;; i = (i + 1) & mask) {
      Slot* slot = &slots_[i];
      if (slot->ops == nullptr || slot->key == key) return slot;
    }
  }

  /// Doubles the capacity (4 slots from empty), relocating every value, and
  /// returns the empty slot for the absent `key`.
  Slot* GrowAndProbe(StateKey key);

  void Steal(StateTable* other);
  void Clear();

  std::unique_ptr<Slot[]> slots_;
  size_t capacity_ = 0;
  size_t size_ = 0;
};

}  // namespace elasticutor
