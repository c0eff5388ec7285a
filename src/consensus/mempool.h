// Interfaces between consensus replicas and the client world, plus a
// standalone transaction source for tests and micro-benchmarks.

#ifndef HOTSTUFF1_CONSENSUS_MEMPOOL_H_
#define HOTSTUFF1_CONSENSUS_MEMPOOL_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "crypto/signer.h"
#include "ledger/block.h"

namespace hotstuff1 {

/// \brief Where leaders draw batches of pending client transactions.
///
/// Modelling note (see DESIGN.md): clients broadcast requests to all
/// replicas in the paper's system; we model the resulting shared pending set
/// as one queue with per-replica visibility delays, which gives exact
/// dedup across leaders. Transactions in orphaned (never committed) blocks
/// are re-submitted by their clients after a timeout, exactly like a real
/// client retry.
class TransactionSource {
 public:
  virtual ~TransactionSource() = default;

  /// Up to `max` transactions visible to `leader` at `now`, in FIFO order.
  virtual std::vector<Transaction> DrawBatch(ReplicaId leader, size_t max,
                                             SimTime now) = 0;

  /// Number of transactions currently waiting (for diagnostics).
  virtual size_t PendingCount() const = 0;
};

/// \brief Where replicas deliver client responses. One call covers a whole
/// block (the per-client fan-out is aggregated; latency accounting uses the
/// replica->client network delay inside the implementation).
class ResponseSink {
 public:
  virtual ~ResponseSink() = default;

  /// `speculative` distinguishes HotStuff-1 early (prepare-time) responses
  /// from committed responses. `results` aligns with block->txns().
  virtual void OnBlockResponse(ReplicaId from, const BlockPtr& block,
                               const TxnResults& results, bool speculative,
                               SimTime send_time) = 0;
};

/// \brief Infinite synthetic source: mints fresh transactions on demand from
/// a generator callback. No queueing, no client latency semantics; used by
/// unit tests and micro-benchmarks.
class SyntheticSource : public TransactionSource {
 public:
  using Generator = std::function<Transaction(uint64_t seq)>;

  explicit SyntheticSource(Generator gen) : gen_(std::move(gen)) {}

  std::vector<Transaction> DrawBatch(ReplicaId /*leader*/, size_t max,
                                     SimTime now) override {
    std::vector<Transaction> out;
    out.reserve(max);
    for (size_t i = 0; i < max; ++i) {
      Transaction t = gen_(next_seq_++);
      t.submit_time = now;
      out.push_back(std::move(t));
    }
    return out;
  }

  size_t PendingCount() const override { return SIZE_MAX; }

 private:
  Generator gen_;
  uint64_t next_seq_ = 0;
};

/// \brief Response sink that drops everything (tests that only care about
/// replica-side state).
class NullResponseSink : public ResponseSink {
 public:
  void OnBlockResponse(ReplicaId, const BlockPtr&, const TxnResults&, bool,
                       SimTime) override {}
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CONSENSUS_MEMPOOL_H_
