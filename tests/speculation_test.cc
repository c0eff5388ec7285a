// The speculation decision engine: Prefix Speculation rule (Def. 3.1),
// No-Gap rule (Def. 3.2), conflict rollback (Def. 4.7), carry units (§6.1),
// and the behaviour with rules disabled (the unsafe mode Appendix A needs).

#include <gtest/gtest.h>

#include "core/speculation.h"

namespace hotstuff1 {
namespace {

Transaction WriteTxn(uint64_t id, uint64_t key, uint64_t value) {
  Transaction t;
  t.id = id;
  t.ops.push_back({TxnOp::Kind::kWrite, key, value});
  return t;
}

class SpeculationTest : public ::testing::Test {
 protected:
  SpeculationTest() : ledger_(&store_, &tree_) {}

  BlockPtr Make(uint64_t view, const BlockPtr& parent, uint64_t key,
                uint64_t value, uint32_t slot = 1, Hash256 carry = {}) {
    auto b = std::make_shared<Block>(BlockId{view, slot}, parent->hash(),
                                     parent->height() + 1, 0,
                                     std::vector<Transaction>{WriteTxn(view, key, value)},
                                     carry);
    store_.Put(b);
    return b;
  }

  BlockStore store_;
  ExecTree tree_;
  Ledger ledger_;
  SpeculationPolicy policy_;  // all rules on by default
};

TEST_F(SpeculationTest, SpeculatesWhenRulesHold) {
  const BlockPtr a = Make(1, store_.genesis(), 1, 10);
  SpeculationOutcome out = TrySpeculate(&ledger_, store_, a, true, policy_);
  EXPECT_TRUE(out.speculated);
  ASSERT_EQ(out.executed.size(), 1u);
  EXPECT_EQ(out.executed[0].block->hash(), a->hash());
  ASSERT_EQ(out.executed[0].results->size(), 1u);
  EXPECT_TRUE(ledger_.IsSpeculated(a->hash()));
}

TEST_F(SpeculationTest, NoGapRuleBlocksStaleCertificates) {
  const BlockPtr a = Make(1, store_.genesis(), 1, 10);
  SpeculationOutcome out = TrySpeculate(&ledger_, store_, a, /*no_gap=*/false, policy_);
  EXPECT_FALSE(out.speculated);
  EXPECT_FALSE(ledger_.IsSpeculated(a->hash()));
}

TEST_F(SpeculationTest, NoGapHookDisablesTheRule) {
  policy_.no_gap_rule = false;
  const BlockPtr a = Make(1, store_.genesis(), 1, 10);
  SpeculationOutcome out = TrySpeculate(&ledger_, store_, a, /*no_gap=*/false, policy_);
  EXPECT_TRUE(out.speculated);  // the unsafe behaviour of Appendix A.1
}

TEST_F(SpeculationTest, PrefixRuleBlocksUncommittedPredecessor) {
  const BlockPtr a = Make(1, store_.genesis(), 1, 10);
  const BlockPtr b = Make(2, a, 2, 20);  // a not committed
  SpeculationOutcome out = TrySpeculate(&ledger_, store_, b, true, policy_);
  EXPECT_FALSE(out.speculated);
}

TEST_F(SpeculationTest, PrefixHookSpeculatesWholeUncommittedChain) {
  policy_.prefix_rule = false;
  const BlockPtr a = Make(1, store_.genesis(), 1, 10);
  const BlockPtr b = Make(2, a, 2, 20);
  SpeculationOutcome out = TrySpeculate(&ledger_, store_, b, true, policy_);
  EXPECT_TRUE(out.speculated);
  ASSERT_EQ(out.executed.size(), 2u);  // ancestor a executed too (unsafe!)
  EXPECT_EQ(out.executed[0].block->hash(), a->hash());
  EXPECT_EQ(out.executed[1].block->hash(), b->hash());
}

TEST_F(SpeculationTest, DisabledPolicyNeverSpeculates) {
  policy_.enabled = false;
  const BlockPtr a = Make(1, store_.genesis(), 1, 10);
  EXPECT_FALSE(TrySpeculate(&ledger_, store_, a, true, policy_).speculated);
}

TEST_F(SpeculationTest, AlreadySpeculatedIsNoOp) {
  const BlockPtr a = Make(1, store_.genesis(), 1, 10);
  EXPECT_TRUE(TrySpeculate(&ledger_, store_, a, true, policy_).speculated);
  EXPECT_FALSE(TrySpeculate(&ledger_, store_, a, true, policy_).speculated);
  EXPECT_EQ(ledger_.spec_depth(), 1u);
}

TEST_F(SpeculationTest, CommittedBlockIsNoOp) {
  const BlockPtr a = Make(1, store_.genesis(), 1, 10);
  ledger_.CommitChain(a);
  EXPECT_FALSE(TrySpeculate(&ledger_, store_, a, true, policy_).speculated);
}

TEST_F(SpeculationTest, ConflictTriggersRollback) {
  // Def. 4.7: speculated B_w conflicts with higher certified B_v.
  const BlockPtr a = Make(1, store_.genesis(), 1, 10);
  const BlockPtr x = Make(2, store_.genesis(), 1, 77);
  EXPECT_TRUE(TrySpeculate(&ledger_, store_, a, true, policy_).speculated);
  SpeculationOutcome out = TrySpeculate(&ledger_, store_, x, true, policy_);
  EXPECT_TRUE(out.speculated);
  EXPECT_EQ(out.blocks_rolled_back, 1u);
  EXPECT_FALSE(ledger_.IsSpeculated(a->hash()));
  EXPECT_TRUE(ledger_.IsSpeculated(x->hash()));
  EXPECT_EQ(ledger_.state().Get(1), 77u);
}

TEST_F(SpeculationTest, CarryUnitExecutesCarriedBlockFirst) {
  // Chain: genesis <- u (carried, uncertified) <- b (first slot, carries u).
  const BlockPtr u = Make(1, store_.genesis(), 1, 10, /*slot=*/4);
  const BlockPtr b = Make(2, u, 2, 20, /*slot=*/1, /*carry=*/u->hash());
  SpeculationOutcome out = TrySpeculate(&ledger_, store_, b, true, policy_);
  EXPECT_TRUE(out.speculated);
  ASSERT_EQ(out.executed.size(), 2u);
  EXPECT_EQ(out.executed[0].block->hash(), u->hash());
  EXPECT_EQ(out.executed[1].block->hash(), b->hash());
  EXPECT_EQ(ledger_.state().Get(1), 10u);
  EXPECT_EQ(ledger_.state().Get(2), 20u);
}

TEST_F(SpeculationTest, NonCarryUncommittedParentStillBlocked) {
  // Same shape but without the carry marker: prefix rule must refuse.
  const BlockPtr u = Make(1, store_.genesis(), 1, 10, /*slot=*/4);
  const BlockPtr b = Make(2, u, 2, 20, /*slot=*/1);
  EXPECT_FALSE(TrySpeculate(&ledger_, store_, b, true, policy_).speculated);
}

TEST_F(SpeculationTest, MissingParentBlocksSpeculation) {
  // Block whose parent is unknown (gap): cannot execute.
  auto orphan = std::make_shared<Block>(
      BlockId{3, 1}, Sha256::Digest("unknown parent"), 3, 0,
      std::vector<Transaction>{WriteTxn(1, 1, 1)});
  store_.Put(orphan);
  EXPECT_FALSE(TrySpeculate(&ledger_, store_, orphan, true, policy_).speculated);
}

TEST_F(SpeculationTest, RefusesToForkCommittedPrefix) {
  // A block whose parent is committed but below the committed tip would
  // fork the global ledger; speculation must refuse even with no-gap ok.
  const BlockPtr a = Make(1, store_.genesis(), 1, 10);
  const BlockPtr b = Make(2, a, 2, 20);
  ledger_.CommitChain(b);
  const BlockPtr evil = Make(3, a, 1, 99);  // extends a, conflicts with b
  EXPECT_FALSE(TrySpeculate(&ledger_, store_, evil, true, policy_).speculated);
}

TEST_F(SpeculationTest, ChainedSpeculationOnSpecTip) {
  // After committing a, speculate b then c in sequence (the streamlined
  // steady state).
  const BlockPtr a = Make(1, store_.genesis(), 1, 10);
  ledger_.CommitChain(a);
  const BlockPtr b = Make(2, a, 2, 20);
  EXPECT_TRUE(TrySpeculate(&ledger_, store_, b, true, policy_).speculated);
  ledger_.CommitChain(b);
  const BlockPtr c = Make(3, b, 3, 30);
  EXPECT_TRUE(TrySpeculate(&ledger_, store_, c, true, policy_).speculated);
  EXPECT_EQ(ledger_.spec_depth(), 1u);
}

}  // namespace
}  // namespace hotstuff1
