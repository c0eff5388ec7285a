// Blocks, block store ancestry, KV state undo, and the dual-ledger
// speculate/rollback/commit machinery (§3 Rollback, §4.2).

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "common/random.h"

#include "ledger/block.h"
#include "ledger/block_store.h"
#include "ledger/kv_state.h"
#include "ledger/ledger.h"

namespace hotstuff1 {
namespace {

Transaction WriteTxn(uint64_t id, uint64_t key, uint64_t value) {
  Transaction t;
  t.id = id;
  t.ops.push_back({TxnOp::Kind::kWrite, key, value});
  return t;
}

Transaction RmwTxn(uint64_t id, uint64_t key, uint64_t delta) {
  Transaction t;
  t.id = id;
  t.ops.push_back({TxnOp::Kind::kReadModifyWrite, key, delta});
  return t;
}

BlockPtr MakeBlock(uint64_t view, const BlockPtr& parent,
                   std::vector<Transaction> txns, uint32_t slot = 1,
                   Hash256 carry = {}) {
  return std::make_shared<Block>(BlockId{view, slot}, parent->hash(),
                                 parent->height() + 1, /*proposer=*/0,
                                 std::move(txns), carry);
}

// --- Block ---------------------------------------------------------------------

TEST(BlockTest, GenesisIsStable) {
  EXPECT_TRUE(Block::Genesis()->IsGenesis());
  EXPECT_EQ(Block::Genesis()->height(), 0u);
  EXPECT_EQ(Block::Genesis()->hash(), Block::Genesis()->hash());
}

TEST(BlockTest, HashCoversContent) {
  const BlockPtr g = Block::Genesis();
  const BlockPtr a = MakeBlock(1, g, {WriteTxn(1, 5, 10)});
  const BlockPtr b = MakeBlock(1, g, {WriteTxn(1, 5, 11)});  // different value
  const BlockPtr c = MakeBlock(2, g, {WriteTxn(1, 5, 10)});  // different view
  const BlockPtr d = MakeBlock(1, g, {WriteTxn(1, 5, 10)}, /*slot=*/2);
  EXPECT_NE(a->hash(), b->hash());
  EXPECT_NE(a->hash(), c->hash());
  EXPECT_NE(a->hash(), d->hash());
  // Carry hash is part of identity.
  const BlockPtr e = MakeBlock(1, g, {WriteTxn(1, 5, 10)}, 1, a->hash());
  EXPECT_NE(a->hash(), e->hash());
  EXPECT_TRUE(e->has_carry());
  EXPECT_FALSE(a->has_carry());
}

TEST(BlockTest, IdOrderingIsLexicographic) {
  EXPECT_TRUE((BlockId{1, 4}) < (BlockId{2, 1}));  // view first
  EXPECT_TRUE((BlockId{2, 1}) < (BlockId{2, 2}));  // slot second
  EXPECT_TRUE((BlockId{2, 2}) <= (BlockId{2, 2}));
  EXPECT_FALSE((BlockId{2, 2}) < (BlockId{2, 2}));
}

TEST(BlockTest, WireSizeGrowsWithTxns) {
  const BlockPtr g = Block::Genesis();
  const BlockPtr small = MakeBlock(1, g, {WriteTxn(1, 1, 1)});
  std::vector<Transaction> many;
  for (uint64_t i = 0; i < 100; ++i) many.push_back(WriteTxn(i, i, i));
  const BlockPtr big = MakeBlock(1, g, std::move(many));
  EXPECT_GT(big->WireSize(), small->WireSize() + 90 * 40);
}

// --- BlockStore ------------------------------------------------------------------

TEST(BlockStoreTest, GetAndContains) {
  BlockStore store;
  EXPECT_TRUE(store.Contains(Block::Genesis()->hash()));
  const BlockPtr a = MakeBlock(1, store.genesis(), {});
  EXPECT_FALSE(store.Contains(a->hash()));
  EXPECT_TRUE(store.Get(a->hash()).status().IsNotFound());
  store.Put(a);
  EXPECT_TRUE(store.Contains(a->hash()));
  EXPECT_EQ(store.Get(a->hash()).ValueOrDie()->hash(), a->hash());
}

TEST(BlockStoreTest, AncestryQueries) {
  BlockStore store;
  const BlockPtr a = MakeBlock(1, store.genesis(), {});
  const BlockPtr b = MakeBlock(2, a, {});
  const BlockPtr c = MakeBlock(3, b, {});
  const BlockPtr x = MakeBlock(2, a, {WriteTxn(9, 9, 9)});  // fork off a
  for (const auto& blk : {a, b, c, x}) store.Put(blk);

  EXPECT_TRUE(store.IsAncestor(a->hash(), c));
  EXPECT_TRUE(store.IsAncestor(c->hash(), c));
  EXPECT_FALSE(store.IsAncestor(x->hash(), c));
  EXPECT_EQ(store.AncestorAt(c, 1)->hash(), a->hash());
  EXPECT_EQ(store.AncestorAt(c, 0)->hash(), store.genesis()->hash());
  EXPECT_EQ(store.AncestorAt(c, 9), nullptr);
  EXPECT_EQ(store.CommonAncestor(c, x)->hash(), a->hash());
  EXPECT_EQ(store.CommonAncestor(c, b)->hash(), b->hash());
  EXPECT_EQ(store.Parent(a)->hash(), store.genesis()->hash());
  EXPECT_EQ(store.Parent(store.genesis()), nullptr);
}

TEST(BlockStoreTest, GapReturnsNull) {
  BlockStore store;
  const BlockPtr a = MakeBlock(1, store.genesis(), {});
  const BlockPtr b = MakeBlock(2, a, {});
  store.Put(b);  // a intentionally missing
  EXPECT_EQ(store.AncestorAt(b, 1), nullptr);
  EXPECT_FALSE(store.IsAncestor(Block::Genesis()->hash(), b));
}

// --- KvState --------------------------------------------------------------------

TEST(KvStateTest, OpsAndResults) {
  KvState kv;
  EXPECT_EQ(kv.Get(5), 0u);  // absent reads as zero
  EXPECT_EQ(kv.ApplyOp({TxnOp::Kind::kWrite, 5, 42}, nullptr), 42u);
  EXPECT_EQ(kv.Get(5), 42u);
  EXPECT_EQ(kv.ApplyOp({TxnOp::Kind::kRead, 5, 0}, nullptr), 42u);
  EXPECT_EQ(kv.ApplyOp({TxnOp::Kind::kReadModifyWrite, 5, 8}, nullptr), 50u);
  EXPECT_EQ(kv.Get(5), 50u);
}

TEST(KvStateTest, UndoRestoresExactState) {
  KvState kv;
  kv.Put(1, 100);
  const uint64_t fp_before = kv.Fingerprint();
  KvState::UndoLog undo;
  kv.ApplyTxn(WriteTxn(1, 1, 200), &undo);   // overwrite existing
  kv.ApplyTxn(WriteTxn(2, 2, 300), &undo);   // create new
  kv.ApplyTxn(RmwTxn(3, 1, 7), &undo);       // rmw existing
  EXPECT_NE(kv.Fingerprint(), fp_before);
  kv.Undo(undo);
  EXPECT_EQ(kv.Fingerprint(), fp_before);
  EXPECT_EQ(kv.Get(1), 100u);
  EXPECT_FALSE(kv.Contains(2));
}

TEST(KvStateTest, TxnResultsAreDeterministicAndStateDependent) {
  KvState a, b;
  const Transaction t = RmwTxn(9, 4, 5);
  EXPECT_EQ(a.ApplyTxn(t, nullptr), b.ApplyTxn(t, nullptr));
  // Same txn on different state gives a different result (clients can tell
  // divergent executions apart).
  KvState c;
  c.Put(4, 1000);
  EXPECT_NE(a.ApplyTxn(t, nullptr), c.ApplyTxn(t, nullptr));
}

TEST(KvStateTest, FingerprintIsOrderInsensitive) {
  KvState a, b;
  a.Put(1, 10);
  a.Put(2, 20);
  b.Put(2, 20);
  b.Put(1, 10);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

// Differential check of the flat table against std::unordered_map. The
// reference keeps a snapshot per open undo log, so rollback is checked
// against an independent model rather than against KvState's own undo.
class KvStateDifferential {
 public:
  void Write(uint64_t key, uint64_t value, bool rmw) {
    const TxnOp op{rmw ? TxnOp::Kind::kReadModifyWrite : TxnOp::Kind::kWrite, key, value};
    const uint64_t got = kv_.ApplyOp(op, logs_.empty() ? nullptr : &logs_.back());
    const uint64_t want = ref_[key] = rmw ? ref_[key] + value : value;
    EXPECT_EQ(got, want) << "key " << key;
    Check();
  }
  void Open() {
    logs_.emplace_back();
    snapshots_.push_back(ref_);
  }
  void Undo() {
    kv_.Undo(logs_.back());
    ref_ = snapshots_.back();
    logs_.pop_back();
    snapshots_.pop_back();
    Check();
  }
  // Erases `key` through a one-entry undo log. Rollback erases only the
  // newest insert (LIFO), which never needs a backward shift unless the
  // table was rehashed since; this reaches any slot of any probe run.
  void Erase(uint64_t key) {
    ASSERT_FALSE(open());
    kv_.Undo({KvState::UndoEntry{key, 0, false}});
    ref_.erase(key);
    Check();
  }
  bool open() const { return !logs_.empty(); }
  size_t size() const { return ref_.size(); }

  void Check() {
    ASSERT_EQ(kv_.size(), ref_.size());
    uint64_t fp = 0;
    for (const auto& [k, v] : ref_) {
      ASSERT_EQ(kv_.Get(k), v) << "key " << k;
      ASSERT_TRUE(kv_.Contains(k)) << "key " << k;
      fp ^= Mix(Mix(k) ^ v);
    }
    // The fingerprint formula replicas compare is unchanged.
    ASSERT_EQ(kv_.Fingerprint(), fp);
  }

 private:
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  KvState kv_;
  std::vector<KvState::UndoLog> logs_;
  std::unordered_map<uint64_t, uint64_t> ref_;
  std::vector<std::unordered_map<uint64_t, uint64_t>> snapshots_;
};

TEST(KvStateTest, MatchesReferenceMapUnderRandomApplyAndUndo) {
  constexpr uint64_t kSentinel = ~uint64_t{0};  // the table's empty-slot key
  for (uint64_t episode = 0; episode < 120; ++episode) {
    // Most episodes draw from 11 random keys, so each places a dense probe
    // layout in one 16-slot table and erase chains wrap past its end; every
    // fifth grows to ~400 keys, so tables double while undo logs are open.
    Rng rng(episode);
    const bool grow = episode % 5 == 0;
    std::vector<uint64_t> pool;
    for (uint64_t i = 0; i < (grow ? 400 : 11); ++i) pool.push_back(grow ? i : rng.NextU64());
    KvStateDifferential d;
    for (int step = 0; step < 800; ++step) {
      const uint64_t roll = rng.NextBounded(100);
      const uint64_t key = roll < 3 ? kSentinel : pool[rng.NextBounded(pool.size())];
      if (roll < 55) {
        d.Write(key, rng.NextU64(), roll % 2 == 1);
      } else if (roll < 75) {
        d.Open();
      } else if (roll < 92) {
        if (d.open()) {
          d.Undo();
        } else {
          d.Erase(key);
        }
      } else {
        while (d.open()) d.Undo();  // a rollback storm
      }
      if (HasFatalFailure()) return;
    }
    while (d.open()) d.Undo();
  }
}

TEST(KvStateTest, SentinelKeyIsAnOrdinaryKey) {
  constexpr uint64_t kSentinel = ~uint64_t{0};
  KvState kv;
  EXPECT_FALSE(kv.Contains(kSentinel));
  EXPECT_EQ(kv.Get(kSentinel), 0u);
  KvState::UndoLog undo;
  kv.ApplyOp({TxnOp::Kind::kWrite, kSentinel, 9}, &undo);
  kv.ApplyOp({TxnOp::Kind::kReadModifyWrite, kSentinel, 1}, &undo);
  EXPECT_EQ(kv.Get(kSentinel), 10u);
  EXPECT_EQ(kv.size(), 1u);
  kv.Undo(undo);
  EXPECT_FALSE(kv.Contains(kSentinel));
  EXPECT_EQ(kv.size(), 0u);
  EXPECT_EQ(kv.Fingerprint(), KvState().Fingerprint());
}

// --- Ledger ---------------------------------------------------------------------

class LedgerTest : public ::testing::Test {
 protected:
  LedgerTest() : ledger_(&store_, KvState()) {}

  BlockPtr Chain(uint64_t view, const BlockPtr& parent, uint64_t key,
                 uint64_t value) {
    BlockPtr b = MakeBlock(view, parent, {WriteTxn(view, key, value)});
    store_.Put(b);
    return b;
  }

  BlockStore store_;
  Ledger ledger_;
};

TEST_F(LedgerTest, StartsAtGenesis) {
  EXPECT_EQ(ledger_.committed_height(), 0u);
  EXPECT_EQ(ledger_.spec_tip()->hash(), store_.genesis()->hash());
  EXPECT_EQ(ledger_.committed_chain().size(), 1u);
}

TEST_F(LedgerTest, SpeculateThenCommitPromotesWithoutReexecution) {
  const BlockPtr a = Chain(1, store_.genesis(), 1, 10);
  const auto results = ledger_.Speculate(a);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(ledger_.state().Get(1), 10u);
  EXPECT_TRUE(ledger_.IsSpeculated(a->hash()));
  EXPECT_EQ(ledger_.spec_depth(), 1u);

  const uint64_t result_spec = results[0];
  auto committed = ledger_.CommitChain(a);
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_TRUE(committed[0].was_speculated);
  EXPECT_EQ(committed[0].txn_results[0], result_spec);
  EXPECT_EQ(ledger_.committed_height(), 1u);
  EXPECT_EQ(ledger_.spec_depth(), 0u);
  EXPECT_TRUE(ledger_.IsCommitted(a->hash()));
  EXPECT_EQ(ledger_.txns_committed(), 1u);
}

TEST_F(LedgerTest, CommitWithoutSpeculationExecutes) {
  const BlockPtr a = Chain(1, store_.genesis(), 1, 10);
  const BlockPtr b = Chain(2, a, 2, 20);
  auto committed = ledger_.CommitChain(b);
  ASSERT_EQ(committed.size(), 2u);
  EXPECT_FALSE(committed[0].was_speculated);
  EXPECT_EQ(ledger_.state().Get(1), 10u);
  EXPECT_EQ(ledger_.state().Get(2), 20u);
  EXPECT_EQ(ledger_.committed_height(), 2u);
}

TEST_F(LedgerTest, RollbackRestoresState) {
  KvState pristine;
  const uint64_t fp0 = ledger_.state().Fingerprint();
  const BlockPtr a = Chain(1, store_.genesis(), 1, 10);
  const BlockPtr b = Chain(2, a, 1, 99);
  ledger_.Speculate(a);
  ledger_.Speculate(b);
  EXPECT_EQ(ledger_.state().Get(1), 99u);

  // Roll back b only.
  EXPECT_EQ(ledger_.RollbackTo(a->hash()), 1u);
  EXPECT_EQ(ledger_.state().Get(1), 10u);
  EXPECT_EQ(ledger_.spec_tip()->hash(), a->hash());

  // Roll back everything.
  EXPECT_EQ(ledger_.RollbackTo(store_.genesis()->hash()), 1u);
  EXPECT_EQ(ledger_.state().Fingerprint(), fp0);
  EXPECT_EQ(ledger_.rollback_events(), 2u);
  EXPECT_EQ(ledger_.blocks_rolled_back(), 2u);
}

TEST_F(LedgerTest, CommitOfConflictingChainRollsBackSpeculation) {
  const BlockPtr a = Chain(1, store_.genesis(), 1, 10);
  const BlockPtr x = Chain(2, store_.genesis(), 1, 77);  // conflicts with a
  ledger_.Speculate(a);
  auto committed = ledger_.CommitChain(x);
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_FALSE(committed[0].was_speculated);
  EXPECT_EQ(ledger_.state().Get(1), 77u);
  EXPECT_EQ(ledger_.committed_tip()->hash(), x->hash());
  EXPECT_FALSE(ledger_.IsSpeculated(a->hash()));
  EXPECT_GE(ledger_.rollback_events(), 1u);
}

TEST_F(LedgerTest, CommitPrefixKeepsDeeperSpeculation) {
  const BlockPtr a = Chain(1, store_.genesis(), 1, 10);
  const BlockPtr b = Chain(2, a, 2, 20);
  ledger_.Speculate(a);
  ledger_.Speculate(b);
  ledger_.CommitChain(a);  // commit only the prefix
  EXPECT_EQ(ledger_.committed_tip()->hash(), a->hash());
  EXPECT_TRUE(ledger_.IsSpeculated(b->hash()));
  EXPECT_EQ(ledger_.spec_depth(), 1u);
  EXPECT_EQ(ledger_.state().Get(2), 20u);
  // Later commit of b promotes it.
  auto committed = ledger_.CommitChain(b);
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_TRUE(committed[0].was_speculated);
}

TEST_F(LedgerTest, CommitChainIsIdempotent) {
  const BlockPtr a = Chain(1, store_.genesis(), 1, 10);
  ledger_.CommitChain(a);
  EXPECT_TRUE(ledger_.CommitChain(a).empty());
  EXPECT_EQ(ledger_.committed_height(), 1u);
}

TEST_F(LedgerTest, SpeculationResultsMatchCommitResults) {
  // Two ledgers over the same chain: one speculates then commits, the other
  // commits directly; per-txn results must agree (clients match on them).
  const BlockPtr a = Chain(1, store_.genesis(), 1, 5);
  const BlockPtr b = Chain(2, a, 1, 6);
  Ledger direct(&store_, KvState());
  ledger_.Speculate(a);
  ledger_.Speculate(b);
  auto via_spec = ledger_.CommitChain(b);
  auto via_direct = direct.CommitChain(b);
  ASSERT_EQ(via_spec.size(), via_direct.size());
  for (size_t i = 0; i < via_spec.size(); ++i) {
    EXPECT_EQ(via_spec[i].txn_results, via_direct[i].txn_results);
  }
  EXPECT_EQ(ledger_.state().Fingerprint(), direct.state().Fingerprint());
}

TEST_F(LedgerTest, RollbackToUnknownAncestorDies) {
  const BlockPtr a = Chain(1, store_.genesis(), 1, 10);
  ledger_.Speculate(a);
  Hash256 bogus = Sha256::Digest("not a block");
  EXPECT_DEATH(ledger_.RollbackTo(bogus), "rollback target");
}

TEST_F(LedgerTest, ConflictingCommitDies) {
  const BlockPtr a = Chain(1, store_.genesis(), 1, 10);
  const BlockPtr x = Chain(1, store_.genesis(), 1, 20);  // same height fork
  ledger_.CommitChain(a);
  EXPECT_DEATH(ledger_.CommitChain(x), "conflicts with committed chain");
}

}  // namespace
}  // namespace hotstuff1
