// The shared execution tree against private ones. Ledgers that share one
// ExecTree must see exactly what ledgers with a tree each see: the same
// per-txn results for every speculated and committed block, and the same
// state at every spec tip. Both sets replay one random script over a block
// tree with forks (speculate, roll back, commit, including direct commits of
// blocks never speculated), and both are also checked against re-execution
// from a fresh table.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "ledger/block.h"
#include "ledger/block_store.h"
#include "ledger/exec_tree.h"
#include "ledger/kv_state.h"
#include "ledger/ledger.h"

namespace hotstuff1 {
namespace {

constexpr size_t kLedgers = 4;

// Random ops over a small key space, so results depend on the pre-state:
// reads and read-modify-writes return what earlier blocks wrote.
Transaction RandomTxn(Rng* rng, uint64_t id) {
  Transaction t;
  t.id = id;
  const uint64_t ops = 1 + rng->NextBounded(3);
  for (uint64_t i = 0; i < ops; ++i) {
    TxnOp op;
    op.kind = static_cast<TxnOp::Kind>(rng->NextBounded(3));
    op.key = rng->NextBounded(16);
    op.value = 1 + rng->NextBounded(1000);
    t.ops.push_back(op);
  }
  return t;
}

// A block tree with forks: a main chain, and fork blocks that extend one of
// the last seven blocks made (main or fork). Commits stay on the main chain,
// as in a run, so speculation on a fork is rolled back when they pass it.
struct Forest {
  BlockStore store;
  std::vector<BlockPtr> blocks;
  std::vector<BlockPtr> main;  // main[h] has height h (main[0] is genesis)
  std::unordered_map<Hash256, std::vector<BlockPtr>, Hash256Hasher> children;

  BlockPtr Add(const BlockPtr& parent, std::vector<Transaction> txns) {
    auto b = std::make_shared<Block>(BlockId{blocks.size() + 1, 1}, parent->hash(),
                                     parent->height() + 1, 0, std::move(txns));
    store.Put(b);
    blocks.push_back(b);
    children[parent->hash()].push_back(b);
    return b;
  }

  static std::unique_ptr<Forest> Random(uint64_t seed, size_t size) {
    auto f = std::make_unique<Forest>();
    f->main.push_back(f->store.genesis());
    Rng rng(seed);
    uint64_t txn_id = 0;
    for (size_t i = 0; i < size; ++i) {
      const bool on_main = rng.NextBounded(2) == 0;
      const uint64_t pick = rng.NextBounded(7);
      const BlockPtr parent = on_main ? f->main.back()
                              : pick < f->blocks.size()
                                  ? f->blocks[f->blocks.size() - 1 - pick]
                                  : f->store.genesis();
      std::vector<Transaction> txns;
      const uint64_t count = rng.NextBounded(6);  // empty blocks too
      for (uint64_t t = 0; t < count; ++t) txns.push_back(RandomTxn(&rng, ++txn_id));
      const BlockPtr b = f->Add(parent, std::move(txns));
      if (on_main) f->main.push_back(b);
    }
    return f;
  }
};

// Independent reference: genesis -> `tip` re-executed on a fresh table.
uint64_t ReexecutedFingerprint(const BlockStore& store, BlockPtr tip) {
  std::vector<BlockPtr> path;
  for (; !tip->IsGenesis(); tip = store.GetOrNull(tip->parent_hash())) path.push_back(tip);
  KvState kv;
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    for (const Transaction& t : (*it)->txns()) kv.ApplyTxn(t, nullptr);
  }
  return kv.Fingerprint();
}

struct Step {
  enum class Kind { kNone, kSpeculate, kRollback, kCommit };
  Kind kind = Kind::kNone;
  BlockPtr block;
};

// One random step for `ledger`. Depends only on the ledger's chain shape,
// never on execution, so both sets take the same decisions.
Step Decide(const Forest& f, const Ledger& ledger, Rng* rng) {
  const uint64_t r = rng->NextBounded(10);
  if (r < 5) {
    const auto it = f.children.find(ledger.spec_tip()->hash());
    if (it != f.children.end()) {
      return {Step::Kind::kSpeculate, it->second[rng->NextBounded(it->second.size())]};
    }
  }
  if (r >= 5 && r < 7 && ledger.spec_depth() > 0) {
    const uint64_t h = ledger.committed_height() + rng->NextBounded(ledger.spec_depth());
    return {Step::Kind::kRollback, f.store.AncestorAt(ledger.spec_tip(), h)};
  }
  // Commit one to three main-chain blocks past the committed tip: promoting
  // speculation, rolling back a fork first, or executing blocks never
  // speculated.
  const uint64_t h = ledger.committed_height() + 1 + rng->NextBounded(3);
  if (h >= f.main.size()) return {};
  return {Step::Kind::kCommit, f.main[h]};
}

// Every result a step produced, flattened: block hashes' prefixes, the
// promoted flag and each txn result.
std::vector<uint64_t> Apply(Ledger* ledger, const Step& step) {
  std::vector<uint64_t> out;
  switch (step.kind) {
    case Step::Kind::kNone:
      break;
    case Step::Kind::kSpeculate: {
      const TxnResults results = ledger->Speculate(step.block);
      EXPECT_EQ(results->size(), step.block->txns().size());
      out = *results;
      break;
    }
    case Step::Kind::kRollback:
      out.push_back(ledger->RollbackTo(step.block->hash()));
      break;
    case Step::Kind::kCommit:
      for (const ExecResult& res : ledger->CommitChain(step.block)) {
        EXPECT_EQ(res.txn_results->size(), res.block->txns().size());
        out.push_back(res.block->hash().Prefix64());
        out.push_back(res.was_speculated);
        out.insert(out.end(), res.txn_results->begin(), res.txn_results->end());
      }
      break;
  }
  return out;
}

// Four ledgers on one tree and four with a tree each, over one store.
struct LedgerSets {
  explicit LedgerSets(const BlockStore* store) {
    for (size_t i = 0; i < kLedgers; ++i) {
      shared.push_back(std::make_unique<Ledger>(store, &shared_tree));
      own.push_back(std::make_unique<Ledger>(store, &own_trees[i]));
    }
  }

  ExecTree shared_tree;
  std::array<ExecTree, kLedgers> own_trees;
  std::vector<std::unique_ptr<Ledger>> shared, own;
};

void ExpectSameLedgers(const Ledger& a, const Ledger& b) {
  EXPECT_EQ(a.spec_tip()->hash(), b.spec_tip()->hash());
  EXPECT_EQ(a.committed_tip()->hash(), b.committed_tip()->hash());
  EXPECT_EQ(a.txns_speculated(), b.txns_speculated());
  EXPECT_EQ(a.txns_committed(), b.txns_committed());
  EXPECT_EQ(a.rollback_events(), b.rollback_events());
  EXPECT_EQ(a.blocks_rolled_back(), b.blocks_rolled_back());
}

TEST(ExecTreeTest, SharedTreeMatchesPrivateTreesOnRandomForkScripts) {
  std::array<int, 4> kinds{};  // steps taken, by Step::Kind
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto forest = Forest::Random(seed, 300);
    LedgerSets sets(&forest->store);
    Rng rng(seed * 7919);
    for (int step = 0; step < 400; ++step) {
      const size_t i = rng.NextBounded(kLedgers);
      const Step s = Decide(*forest, *sets.shared[i], &rng);
      ++kinds[static_cast<size_t>(s.kind)];
      ASSERT_EQ(Apply(sets.shared[i].get(), s), Apply(sets.own[i].get(), s))
          << "step " << step << " ledger " << i;
      const uint64_t fp = sets.shared[i]->state().Fingerprint();
      ASSERT_EQ(fp, sets.own[i]->state().Fingerprint()) << "step " << step;
      ASSERT_EQ(fp, ReexecutedFingerprint(forest->store, sets.shared[i]->spec_tip()))
          << "step " << step;
    }
    for (size_t i = 0; i < kLedgers; ++i) {
      ExpectSameLedgers(*sets.shared[i], *sets.own[i]);
      EXPECT_EQ(sets.shared[i]->state().Fingerprint(), sets.own[i]->state().Fingerprint());
    }
    // At most one execution per distinct block, however many ledgers
    // reached it.
    size_t private_total = 0;
    for (const ExecTree& tree : sets.own_trees) private_total += tree.blocks_executed();
    EXPECT_LE(sets.shared_tree.blocks_executed(), private_total);
    EXPECT_LE(sets.shared_tree.blocks_executed(), forest->blocks.size());
  }
  // The script must keep exercising every kind of step.
  EXPECT_GT(kinds[static_cast<size_t>(Step::Kind::kSpeculate)], 1000);
  EXPECT_GT(kinds[static_cast<size_t>(Step::Kind::kRollback)], 200);
  EXPECT_GT(kinds[static_cast<size_t>(Step::Kind::kCommit)], 1000);
}

// Fig. 10's rollback attack on the ledgers: at every height a faulty leader
// certifies a sibling for the victims only. Victims speculate the sibling,
// the others speculate the winning block; the victims roll back and commit
// the winner. Reading the victims' state between the two speculations moves
// the shared cursor across the fork every height (undo + checked redo).
TEST(ExecTreeTest, RollbackAttackAlternatesSiblingBranches) {
  Forest forest;
  Rng rng(10);
  uint64_t txn_id = 0;
  const auto block_txns = [&] {
    std::vector<Transaction> txns;
    for (int t = 0; t < 8; ++t) txns.push_back(RandomTxn(&rng, ++txn_id));
    return txns;
  };
  LedgerSets sets(&forest.store);
  const auto victim = [](size_t i) { return i < 2; };
  BlockPtr tip = forest.store.genesis();
  for (int h = 0; h < 30; ++h) {
    SCOPED_TRACE("height " + std::to_string(h + 1));
    const BlockPtr sibling = forest.Add(tip, block_txns());
    const BlockPtr winner = forest.Add(tip, block_txns());
    for (size_t i = 0; i < kLedgers; ++i) {
      const Step s{Step::Kind::kSpeculate, victim(i) ? sibling : winner};
      ASSERT_EQ(Apply(sets.shared[i].get(), s), Apply(sets.own[i].get(), s));
    }
    for (size_t i = 0; i < kLedgers; ++i) {
      const uint64_t fp = sets.shared[i]->state().Fingerprint();
      EXPECT_EQ(fp, sets.own[i]->state().Fingerprint());
      EXPECT_EQ(fp, ReexecutedFingerprint(forest.store, victim(i) ? sibling : winner));
    }
    for (size_t i = 0; i < kLedgers; ++i) {
      const Step s{Step::Kind::kCommit, winner};
      ASSERT_EQ(Apply(sets.shared[i].get(), s), Apply(sets.own[i].get(), s));
      EXPECT_EQ(sets.shared[i]->blocks_rolled_back(), victim(i) ? h + 1u : 0u);
    }
    tip = winner;
  }
  for (size_t i = 0; i < kLedgers; ++i) ExpectSameLedgers(*sets.shared[i], *sets.own[i]);
  EXPECT_EQ(sets.shared_tree.blocks_executed(), 60u);
}

// Replicas on different simulator shards execute concurrently. Four threads
// drive four ledgers over one tree; each ledger's results must equal a
// serial run of the same script on a private tree.
TEST(ExecTreeTest, ConcurrentLedgersOnOneTreeMatchSerial) {
  const auto forest = Forest::Random(42, 300);
  constexpr int kSteps = 300;
  std::array<std::vector<std::vector<uint64_t>>, kLedgers> serial, concurrent;
  std::array<uint64_t, kLedgers> serial_fp{};
  LedgerSets sets(&forest->store);
  for (size_t i = 0; i < kLedgers; ++i) {
    Rng rng(1000 + i);
    for (int step = 0; step < kSteps; ++step) {
      serial[i].push_back(Apply(sets.own[i].get(), Decide(*forest, *sets.own[i], &rng)));
    }
    serial_fp[i] = sets.own[i]->state().Fingerprint();
  }
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kLedgers; ++i) {
    threads.emplace_back([&, i] {
      Rng rng(1000 + i);
      Ledger& ledger = *sets.shared[i];
      for (int step = 0; step < kSteps; ++step) {
        concurrent[i].push_back(Apply(&ledger, Decide(*forest, ledger, &rng)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < kLedgers; ++i) {
    EXPECT_EQ(concurrent[i], serial[i]) << "ledger " << i;
    ExpectSameLedgers(*sets.shared[i], *sets.own[i]);
    EXPECT_EQ(sets.shared[i]->state().Fingerprint(), serial_fp[i]) << "ledger " << i;
  }
}

TEST(ExecTreeTest, ExecutingBeforeTheParentDies) {
  Forest forest;
  const BlockPtr a = forest.Add(forest.store.genesis(), {});
  const BlockPtr b = forest.Add(a, {});
  ExecTree tree;
  EXPECT_DEATH(tree.Execute(b), "before its parent");
}

}  // namespace
}  // namespace hotstuff1
