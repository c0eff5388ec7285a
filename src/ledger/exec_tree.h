// One execution of each block per run, shared by every replica's ledger.
//
// A block's SHA-256 covers its parent hash and every operation, so a block
// hash fixes the whole chain back to genesis. A tree has exactly one initial
// state (the empty table), so the post-state of a block and the per-txn
// results it produces are functions of its hash alone. Correct replicas
// therefore need not repeat each other's work: the tree applies each block
// once, memoizes its results, and hands the same immutable result vector to
// every ledger that speculates or commits that block. The virtual cost of
// execution is still charged per replica by the protocol (ChargeCpu); only
// the host work is shared.
//
// The tree holds the run's only KvState plus a cursor: the block whose
// post-state the table currently holds. A miss moves the cursor to the
// block's parent (undo up to the common ancestor, redo down) and applies the
// block there. Every redo re-checks its results against the memo, so a
// broken Undo aborts instead of feeding identical wrong results to every
// replica. A replica that must execute differently (a future Byzantine
// mis-executor) gets a tree of its own.

#ifndef HOTSTUFF1_LEDGER_EXEC_TREE_H_
#define HOTSTUFF1_LEDGER_EXEC_TREE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ledger/block.h"
#include "ledger/kv_state.h"

namespace hotstuff1 {

class ExecTree {
 public:
  ExecTree();

  ExecTree(const ExecTree&) = delete;
  ExecTree& operator=(const ExecTree&) = delete;

  /// Results of applying `block` to its parent's post-state. The parent must
  /// be genesis or a block already executed on this tree. Thread-safe.
  TxnResults Execute(const BlockPtr& block);

  /// Moves the table to the post-state of `block` (genesis or an executed
  /// block) and returns it. The reference is valid until the next Execute or
  /// StateAt on this tree, so read it after the run or on a single thread.
  const KvState& StateAt(const BlockPtr& block);

  /// Distinct blocks executed so far (genesis excluded).
  size_t blocks_executed() const;

 private:
  struct Node {
    BlockPtr block;
    const Node* parent;  // null only for genesis
    TxnResults results;
    KvState::UndoLog undo;  // restores the parent's post-state
  };

  const Node* Lookup(const Hash256& hash) const;
  /// Undoes from the cursor up to the common ancestor with `target`, then
  /// redoes down to `target`, checking every redone result against the memo.
  void SeekTo(const Node* target);

  mutable std::mutex mu_;  // guards every member below
  KvState state_;
  Node genesis_;
  const Node* cursor_;
  std::unordered_map<Hash256, Node, Hash256Hasher> memo_;
  std::vector<const Node*> redo_;  // scratch path for SeekTo
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_LEDGER_EXEC_TREE_H_
