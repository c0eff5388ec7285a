#include "ledger/kv_state.h"

#include <utility>

namespace hotstuff1 {

namespace {

// 64-bit mix (splitmix64 finalizer) for result folding and fingerprints.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr size_t kMinCapacity = 16;

// Smallest power-of-two capacity holding `n` keys at load <= 3/4.
size_t CapacityFor(size_t n) {
  size_t cap = kMinCapacity;
  while (cap - cap / 4 < n) cap *= 2;
  return cap;
}

}  // namespace

void KvState::Reserve(size_t n) {
  const size_t cap = CapacityFor(n);
  if (cap > slots_.size()) Rehash(cap);
}

void KvState::Rehash(size_t capacity) {
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(capacity, Slot{kEmptyKey, 0}));
  mask_ = capacity - 1;
  for (const Slot& s : old) {
    if (s.key == kEmptyKey) continue;
    size_t i = Home(s.key);
    while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

uint64_t* KvState::FindOrInsert(uint64_t key, bool* existed) {
  if (key == kEmptyKey) {
    if (existed) *existed = empty_key_present_;
    if (!empty_key_present_) {
      empty_key_present_ = true;
      empty_key_value_ = 0;
    }
    return &empty_key_value_;
  }
  // Grow before probing when one more key would pass load 3/4; a hit on a
  // full table grows one insert early, which is harmless.
  if (size_ + 1 > slots_.size() - slots_.size() / 4) {
    Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
  }
  size_t i = Home(key);
  for (;; i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    if (s.key == key) {
      if (existed) *existed = true;
      return &s.value;
    }
    if (s.key == kEmptyKey) break;
  }
  if (existed) *existed = false;
  ++size_;
  slots_[i] = Slot{key, 0};
  return &slots_[i].value;
}

void KvState::Erase(uint64_t key) {
  if (key == kEmptyKey) {
    empty_key_present_ = false;
    return;
  }
  if (slots_.empty()) return;
  size_t hole = Home(key);
  for (;; hole = (hole + 1) & mask_) {
    if (slots_[hole].key == key) break;
    if (slots_[hole].key == kEmptyKey) return;
  }
  // Backward-shift deletion: pull later members of the probe run into the
  // hole whenever the hole lies on their path from home, so lookups never
  // stop early and no tombstone is left behind.
  for (size_t j = (hole + 1) & mask_; slots_[j].key != kEmptyKey; j = (j + 1) & mask_) {
    const size_t home = Home(slots_[j].key);
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].key = kEmptyKey;
  --size_;
}

uint64_t KvState::ApplyOp(const TxnOp& op, UndoLog* undo) {
  switch (op.kind) {
    case TxnOp::Kind::kRead:
      return Get(op.key);
    case TxnOp::Kind::kWrite:
    case TxnOp::Kind::kReadModifyWrite: {
      bool existed = false;
      uint64_t* value = FindOrInsert(op.key, &existed);
      if (undo) undo->push_back(UndoEntry{op.key, *value, existed});
      *value = op.kind == TxnOp::Kind::kWrite ? op.value : *value + op.value;
      return *value;
    }
  }
  return 0;
}

uint64_t KvState::ApplyTxn(const Transaction& txn, UndoLog* undo) {
  uint64_t result = Mix(txn.id);
  for (const TxnOp& op : txn.ops) {
    result = Mix(result ^ ApplyOp(op, undo));
  }
  return result;
}

void KvState::Undo(const UndoLog& log) {
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (it->existed) {
      *FindOrInsert(it->key, nullptr) = it->old_value;
    } else {
      Erase(it->key);
    }
  }
}

uint64_t KvState::Fingerprint() const {
  uint64_t fp = 0;
  for (const Slot& s : slots_) {
    if (s.key != kEmptyKey) fp ^= Mix(Mix(s.key) ^ s.value);  // XOR-fold: order independent
  }
  if (empty_key_present_) fp ^= Mix(Mix(kEmptyKey) ^ empty_key_value_);
  return fp;
}

}  // namespace hotstuff1
