#include "ledger/exec_tree.h"

#include "common/logging.h"

namespace hotstuff1 {

ExecTree::ExecTree()
    : genesis_{Block::Genesis(), nullptr, nullptr, {}}, cursor_(&genesis_) {}

const ExecTree::Node* ExecTree::Lookup(const Hash256& hash) const {
  if (hash == genesis_.block->hash()) return &genesis_;
  const auto it = memo_.find(hash);
  return it == memo_.end() ? nullptr : &it->second;
}

TxnResults ExecTree::Execute(const BlockPtr& block) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = memo_.find(block->hash()); it != memo_.end()) {
    return it->second.results;
  }
  const Node* parent = Lookup(block->parent_hash());
  HS1_CHECK(parent != nullptr)
      << "execution of " << block->ToString()
      << " before its parent; a ledger extends only blocks it has executed";
  SeekTo(parent);
  Node node{block, parent, nullptr, {}};
  auto results = std::make_shared<std::vector<uint64_t>>();
  results->reserve(block->txns().size());
  for (const Transaction& txn : block->txns()) {
    results->push_back(state_.ApplyTxn(txn, &node.undo));
  }
  node.results = std::move(results);
  cursor_ = &memo_.emplace(block->hash(), std::move(node)).first->second;
  return cursor_->results;
}

const KvState& ExecTree::StateAt(const BlockPtr& block) {
  std::lock_guard<std::mutex> lock(mu_);
  const Node* target = Lookup(block->hash());
  HS1_CHECK(target != nullptr) << "state of unexecuted block " << block->ToString();
  SeekTo(target);
  return state_;
}

size_t ExecTree::blocks_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memo_.size();
}

void ExecTree::SeekTo(const Node* target) {
  // Heights fall by one per parent step, so stepping the higher side (the
  // cursor on ties) meets at the common ancestor.
  const Node* up = cursor_;
  const Node* down = target;
  redo_.clear();
  while (up != down) {
    if (up->block->height() >= down->block->height()) {
      state_.Undo(up->undo);
      up = up->parent;
    } else {
      redo_.push_back(down);
      down = down->parent;
    }
  }
  for (auto it = redo_.rbegin(); it != redo_.rend(); ++it) {
    const Node& node = **it;
    const auto& txns = node.block->txns();
    for (size_t i = 0; i < txns.size(); ++i) {
      // The undo log recorded at first execution stays valid: same block,
      // same pre-state, same mutations.
      const uint64_t result = state_.ApplyTxn(txns[i], nullptr);
      HS1_CHECK(result == (*node.results)[i])
          << "re-execution of " << node.block->ToString() << " txn " << i
          << " differs from its first execution; KvState undo is broken";
    }
  }
  cursor_ = target;
}

}  // namespace hotstuff1
