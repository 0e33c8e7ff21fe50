#include "state/state_table.h"

namespace elasticutor {

StateTable::Slot* StateTable::GrowAndProbe(StateKey key) {
  const size_t grown = capacity_ == 0 ? 4 : 2 * capacity_;
  StateTable fresh;
  fresh.slots_.reset(new Slot[grown]);
  fresh.capacity_ = grown;
  for (size_t i = 0; i < capacity_; ++i) {
    Slot& from = slots_[i];
    if (from.ops == nullptr) continue;
    Slot* to = fresh.Probe(from.key);
    from.ops->relocate(to->value, from.value);
    to->key = from.key;
    to->ops = from.ops;
    from.ops = nullptr;  // Relocated: the old slot no longer owns a value.
  }
  fresh.size_ = size_;
  size_ = 0;
  *this = std::move(fresh);
  return Probe(key);
}

void StateTable::Steal(StateTable* other) {
  slots_ = std::move(other->slots_);
  capacity_ = std::exchange(other->capacity_, 0);
  size_ = std::exchange(other->size_, 0);
}

void StateTable::Clear() {
  for (size_t i = 0; i < capacity_; ++i) {
    if (slots_[i].ops != nullptr) slots_[i].ops->destroy(slots_[i].value);
  }
  slots_.reset();
  capacity_ = 0;
  size_ = 0;
}

}  // namespace elasticutor
