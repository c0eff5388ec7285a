// Certificates: quorums of signature shares over a block, in one of four
// roles. Matching the paper's implementation note (§7), a certificate is a
// list of n−f digital signatures rather than an aggregated threshold
// signature; the consensus-visible contract is identical.
//
// Kinds:
//   kPrepare  - first-phase certificate P(v) (basic & streamlined protocols)
//   kCommit   - second-phase certificate C(v) (basic HotStuff-1 only)
//   kNewSlot  - slotting: certifies slot (s, v) within a view (§6.1)
//   kNewView  - slotting: formed from NewView votes; annotated with the view
//               `fv` in which it was formed (§6.1)

#ifndef HOTSTUFF1_CONSENSUS_CERTIFICATE_H_
#define HOTSTUFF1_CONSENSUS_CERTIFICATE_H_

#include <atomic>
#include <string>
#include <vector>

#include "common/replica_set.h"
#include "common/status.h"
#include "crypto/authenticator.h"
#include "crypto/signer.h"
#include "ledger/block.h"

namespace hotstuff1 {

enum class CertKind : uint8_t {
  kPrepare = 0,
  kCommit = 1,
  kNewSlot = 2,
  kNewView = 3,
};

const char* CertKindName(CertKind kind);

/// Digest a voter signs for a given vote. `context_view` is the view the
/// vote is cast in (for NewView votes, the view being entered), binding
/// shares to their protocol step so they cannot be replayed across views,
/// slots, or certificate kinds.
Hash256 VoteDigest(CertKind kind, uint64_t context_view, const BlockId& block_id,
                   const Hash256& block_hash);

/// \brief Quorum certificate over one block.
class Certificate {
 public:
  Certificate() = default;
  Certificate(CertKind kind, BlockId block_id, Hash256 block_hash,
              uint64_t formed_view, std::vector<Signature> sigs)
      : kind_(kind),
        block_id_(block_id),
        block_hash_(block_hash),
        formed_view_(formed_view),
        sigs_(std::move(sigs)) {}

  /// The hard-coded certificate for the genesis block that every replica
  /// assumes valid (§4.1).
  static Certificate Genesis();

  CertKind kind() const { return kind_; }
  /// (slot, view) of the certified block.
  const BlockId& block_id() const { return block_id_; }
  uint64_t view() const { return block_id_.view; }
  uint32_t slot() const { return block_id_.slot; }
  const Hash256& block_hash() const { return block_hash_; }
  /// View in which the certificate was formed. Equals the block's view for
  /// Prepare/Commit/NewSlot certificates; may be higher for NewView
  /// certificates (the `fv` annotation of §6.1).
  uint64_t formed_view() const { return formed_view_; }
  const std::vector<Signature>& sigs() const { return sigs_; }

  bool IsGenesis() const { return block_id_ == BlockId{0, 0} && sigs_.empty(); }

  /// Lexicographic certificate ranking used for "highest known certificate"
  /// comparisons ((view, slot) of the certified block, §6.1).
  bool RanksLowerThan(const Certificate& other) const {
    return block_id_ < other.block_id_;
  }
  bool RanksAtMost(const Certificate& other) const {
    return block_id_ <= other.block_id_;
  }

  /// Full verification: quorum size, signer distinctness, signature validity
  /// over the reconstructed vote digest. Genesis verifies trivially.
  Status Verify(const KeyRegistry& registry, uint32_t quorum) const;

  /// Verify() that checks the shares at most once per object. A message is
  /// one immutable object shared by every recipient, so the first replica
  /// to verify its certificate records "all shares distinct and valid" on
  /// it and the rest skip the MACs. The quorum size is re-checked on every
  /// call, since quorums differ across reconfiguration boundaries. Copies
  /// start unverified: a certificate rebuilt elsewhere (say, by a Byzantine
  /// replica) is a distinct object and is verified in full.
  Status VerifyOnce(const KeyRegistry& registry, uint32_t quorum) const;

  /// Wire bytes: a 64-byte header (kind, block id, hashes, formed view) plus
  /// the authenticator section, whose size the scheme decides — the share
  /// vector is O(n), an aggregate is O(1) + bitmap, a threshold signature is
  /// O(1). The default model (multisig vector) reproduces the historical
  /// 64 + shares*96 accounting. Only the byte count varies: `sigs_` itself —
  /// share counting, signer distinctness, digest verification — is identical
  /// under every scheme.
  size_t WireSize(const AuthSizeModel& model = AuthSizeModel{}) const {
    return 64 + model.CertBytes(sigs_.size());
  }

  std::string ToString() const;

 private:
  CertKind kind_ = CertKind::kPrepare;
  BlockId block_id_{0, 0};
  Hash256 block_hash_;
  uint64_t formed_view_ = 0;
  std::vector<Signature> sigs_;

  /// The VerifyOnce verdict. Replicas running on different executor threads
  /// may verify one shared message at once; they all store the same value,
  /// so relaxed ordering suffices. Copying or assigning never carries it.
  class SharesVerified {
   public:
    SharesVerified() = default;
    SharesVerified(const SharesVerified&) {}
    SharesVerified& operator=(const SharesVerified&) {
      ok_.store(false, std::memory_order_relaxed);
      return *this;
    }
    bool get() const { return ok_.load(std::memory_order_relaxed); }
    void Set() const { ok_.store(true, std::memory_order_relaxed); }

   private:
    mutable std::atomic<bool> ok_{false};
  };
  SharesVerified shares_verified_;
};

/// \brief Accumulates vote shares until a quorum forms. One instance per
/// (kind, context view, block) the aggregating leader tracks.
class VoteAccumulator {
 public:
  VoteAccumulator(CertKind kind, uint64_t context_view, BlockId block_id,
                  Hash256 block_hash, uint32_t quorum)
      : kind_(kind),
        context_view_(context_view),
        block_id_(block_id),
        block_hash_(block_hash),
        quorum_(quorum) {}

  /// Adds a share if the signer is new. Returns true when the quorum is
  /// reached exactly by this addition (fires once).
  bool Add(const Signature& sig);

  size_t count() const { return sigs_.size(); }
  bool complete() const { return sigs_.size() >= quorum_; }

  /// Builds the certificate; requires complete(). `formed_view` defaults to
  /// the block's view.
  Certificate Build(uint64_t formed_view) const;
  Certificate Build() const { return Build(block_id_.view); }

  const Hash256& block_hash() const { return block_hash_; }
  const BlockId& block_id() const { return block_id_; }

 private:
  CertKind kind_;
  uint64_t context_view_;
  BlockId block_id_;
  Hash256 block_hash_;
  uint32_t quorum_;
  ReplicaSet signers_;  // O(1) duplicate-signer rejection at any committee size
  std::vector<Signature> sigs_;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CONSENSUS_CERTIFICATE_H_
