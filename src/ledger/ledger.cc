#include "ledger/ledger.h"

#include <algorithm>

#include "common/logging.h"

namespace hotstuff1 {

Ledger::Ledger(const BlockStore* store, ExecTree* tree)
    : store_(store), tree_(tree), committed_tip_(store->genesis()) {
  committed_chain_.push_back(committed_tip_);
}

bool Ledger::IsCommitted(const Hash256& hash) const {
  const BlockPtr b = store_->GetOrNull(hash);
  if (!b) return false;
  if (b->height() > committed_height()) return false;
  return committed_chain_[b->height()]->hash() == hash;
}

BlockPtr Ledger::spec_tip() const {
  return spec_stack_.empty() ? committed_tip_ : spec_stack_.back().block;
}

bool Ledger::IsSpeculated(const Hash256& hash) const {
  return std::any_of(spec_stack_.begin(), spec_stack_.end(),
                     [&](const SpecEntry& e) { return e.block->hash() == hash; });
}

TxnResults Ledger::Speculate(const BlockPtr& block) {
  HS1_CHECK(block->parent_hash() == spec_tip()->hash())
      << "speculation must extend the local-ledger tip: block "
      << block->ToString() << " does not extend " << spec_tip()->ToString();
  spec_stack_.push_back(SpecEntry{block, tree_->Execute(block)});
  txns_speculated_ += block->txns().size();
  return spec_stack_.back().results;
}

size_t Ledger::RollbackTo(const Hash256& ancestor_hash) {
  if (spec_tip()->hash() == ancestor_hash) return 0;
  size_t count = 0;
  while (!spec_stack_.empty() && spec_stack_.back().block->hash() != ancestor_hash) {
    spec_stack_.pop_back();
    ++count;
  }
  if (spec_stack_.empty()) {
    HS1_CHECK(committed_tip_->hash() == ancestor_hash)
        << "rollback target " << ancestor_hash.Short()
        << " is neither on the speculative stack nor the committed tip";
  }
  ++rollback_events_;
  blocks_rolled_back_ += count;
  return count;
}

std::vector<ExecResult> Ledger::CommitChain(const BlockPtr& target) {
  std::vector<ExecResult> out;
  if (target->height() <= committed_height()) {
    // Must already be committed, otherwise a conflicting block reached the
    // commit rule -- a safety violation we refuse to mask.
    HS1_CHECK(IsCommitted(target->hash()))
        << "commit of " << target->ToString()
        << " conflicts with committed chain at height " << target->height();
    return out;
  }

  // Path from the first uncommitted ancestor up to target, in chain order.
  std::vector<BlockPtr> path;
  BlockPtr cur = target;
  while (cur->height() > committed_height()) {
    path.push_back(cur);
    BlockPtr parent = store_->GetOrNull(cur->parent_hash());
    HS1_CHECK(parent != nullptr)
        << "commit path has a gap below " << cur->ToString()
        << "; the protocol must fetch missing blocks before committing";
    cur = parent;
  }
  HS1_CHECK(cur->hash() == committed_tip_->hash())
      << "commit of " << target->ToString() << " forks below the committed tip";
  std::reverse(path.begin(), path.end());

  // Longest prefix of the speculative stack that matches the commit path is
  // promoted; everything above it is rolled back.
  size_t matched = 0;
  while (matched < path.size() && matched < spec_stack_.size() &&
         spec_stack_[matched].block->hash() == path[matched]->hash()) {
    ++matched;
  }
  // Speculation above the matched prefix is rolled back only when it
  // *diverges* from the commit path; speculation that extends the commit
  // target survives the commit.
  if (matched < path.size() && spec_stack_.size() > matched) {
    RollbackTo(matched == 0 ? committed_tip_->hash() : path[matched - 1]->hash());
  }

  out.reserve(path.size());
  for (size_t i = 0; i < path.size(); ++i) {
    ExecResult res;
    res.block = path[i];
    if (i < matched) {
      res.txn_results = std::move(spec_stack_[i].results);
      res.was_speculated = true;
    } else {
      res.txn_results = tree_->Execute(path[i]);
    }
    txns_committed_ += path[i]->txns().size();
    committed_chain_.push_back(path[i]);
    out.push_back(std::move(res));
  }
  spec_stack_.erase(spec_stack_.begin(), spec_stack_.begin() + matched);
  committed_tip_ = path.back();
  HS1_CHECK_EQ(committed_chain_.size(), committed_height() + 1);
  return out;
}

}  // namespace hotstuff1
