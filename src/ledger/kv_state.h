// The replicated state machine: a key-value store with undo-log support so
// speculative execution can be rolled back (§3, Rollback; §4.2).

#ifndef HOTSTUFF1_LEDGER_KV_STATE_H_
#define HOTSTUFF1_LEDGER_KV_STATE_H_

#include <cstdint>
#include <vector>

#include "ledger/block.h"

namespace hotstuff1 {

/// The run's shared execution tree (ledger/exec_tree.h) applies every block
/// through one of these, so it sits on the simulator's hottest host path.
/// It is a flat open-addressing table: linear probing over 16-byte
/// {key, value} slots, a power-of-two capacity kept at load <= 3/4 and grown
/// (doubled) from the real population, and backward-shift erase so
/// rollback-heavy runs never accumulate tombstones. The key that marks an
/// empty slot is a legal key too; its entry lives out of line.
class KvState {
 public:
  struct UndoEntry {
    uint64_t key;
    uint64_t old_value;
    bool existed;
  };
  /// Undo records in application order; Undo() replays them in reverse.
  using UndoLog = std::vector<UndoEntry>;

  /// Sizes the table so `n` keys fit without growing.
  void Reserve(size_t n);

  /// Returns the value for `key`, or 0 when absent (fresh records read as 0).
  uint64_t Get(uint64_t key) const {
    const uint64_t* v = Find(key);
    return v ? *v : 0;
  }

  bool Contains(uint64_t key) const { return Find(key) != nullptr; }
  size_t size() const { return size_ + (empty_key_present_ ? 1 : 0); }

  /// Applies one operation; appends an undo record for mutations if `undo`
  /// is non-null. Returns the operation result (read value / written value).
  uint64_t ApplyOp(const TxnOp& op, UndoLog* undo);

  /// Applies every op of `txn`; returns a deterministic result folding all
  /// op results (what replicas return to the client, and what clients match
  /// across the response quorum).
  uint64_t ApplyTxn(const Transaction& txn, UndoLog* undo);

  /// Reverts the mutations recorded in `log` (reverse order).
  void Undo(const UndoLog& log);

  /// Direct write used by workload loaders (no undo).
  void Put(uint64_t key, uint64_t value) { *FindOrInsert(key, nullptr) = value; }

  /// Order-insensitive fingerprint of the full state; equal states have
  /// equal fingerprints. Used by tests to compare replicas.
  uint64_t Fingerprint() const;

 private:
  struct Slot {
    uint64_t key;
    uint64_t value;
  };
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  size_t Home(uint64_t key) const {
    key ^= key >> 32;
    key *= 0xd6e8feb86659fd93ULL;
    key ^= key >> 32;
    return static_cast<size_t>(key) & mask_;
  }

  const uint64_t* Find(uint64_t key) const {
    if (key == kEmptyKey) return empty_key_present_ ? &empty_key_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmptyKey) return nullptr;
    }
  }

  /// Returns the value slot for `key`, inserting it with value 0 when
  /// absent; `*existed` (if non-null) reports which.
  uint64_t* FindOrInsert(uint64_t key, bool* existed);
  void Erase(uint64_t key);
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;  // capacity is 0 or a power of two
  size_t mask_ = 0;
  size_t size_ = 0;  // occupied slots (excludes the out-of-line entry)
  bool empty_key_present_ = false;
  uint64_t empty_key_value_ = 0;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_LEDGER_KV_STATE_H_
