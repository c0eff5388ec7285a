// Authenticated-communication substrate.
//
// The paper assumes ECDSA-style digital signatures plus (n, t) BLS threshold
// signatures, but its own implementation replaces threshold aggregation with
// "a list of n−f digital signatures" (§7, Implementation). We reproduce that
// contract with a keyed-MAC scheme over a trusted KeyRegistry, which stands
// in for the PKI: sig = SHA256(secret_key_R || domain || payload-digest).
//
// Adversary-model fidelity: simulated Byzantine replicas only ever hold their
// own Signer, so they can equivocate, conceal and replay, but cannot forge a
// correct replica's vote — exactly the paper's adversary (§2).

#ifndef HOTSTUFF1_CRYPTO_SIGNER_H_
#define HOTSTUFF1_CRYPTO_SIGNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "crypto/sha256.h"

namespace hotstuff1 {

using ReplicaId = uint32_t;

/// Domain separation tags so a vote for one protocol step can never be
/// replayed as a vote for another (e.g. a NewSlot share used as a NewView
/// share — the slotting design depends on distinguishing these, §6.1).
enum class SignDomain : uint8_t {
  kProposal = 1,      // leader's proposal
  kProposeVote = 2,   // first-phase vote (prepare share)
  kCommitVote = 3,    // second-phase vote (commit share)
  kNewSlot = 4,       // slotting: New-Slot share
  kNewView = 5,       // slotting / streamlined: New-View share
  kWish = 6,          // pacemaker epoch synchronization
  kClientRequest = 7,
  kClientResponse = 8,
};

/// A single replica's signature over a (domain, payload digest) pair.
struct Signature {
  ReplicaId signer = 0;
  Hash256 mac;

  bool operator==(const Signature& other) const {
    return signer == other.signer && mac == other.mac;
  }
};

/// \brief Trusted key registry: stands in for the PKI + BLS public keys.
/// Owns every replica's signing secret; hands out per-replica Signers;
/// verifies any signature.
class KeyRegistry {
 public:
  /// Creates keys for replicas [0, n) deterministically from `seed`.
  KeyRegistry(uint32_t n, uint64_t seed);

  uint32_t num_replicas() const { return static_cast<uint32_t>(keys_.size()); }

  /// MAC for (signer, domain, digest). Internal: use Signer::Sign.
  Hash256 ComputeMac(ReplicaId signer, SignDomain domain, const Hash256& digest) const;

  /// Verifies that `sig` is a valid signature by `sig.signer` over
  /// (domain, digest).
  bool Verify(const Signature& sig, SignDomain domain, const Hash256& digest) const;

  /// Verifies a quorum: at least `quorum` signatures, all distinct signers,
  /// all valid over (domain, digest).
  Status VerifyQuorum(const std::vector<Signature>& sigs, SignDomain domain,
                      const Hash256& digest, uint32_t quorum) const;

  /// The size half of VerifyQuorum: OK iff `shares` >= `quorum`.
  static Status CheckQuorumSize(size_t shares, uint32_t quorum);

 private:
  friend class Signer;
  std::vector<Hash256> keys_;
};

/// \brief Signing handle bound to one replica identity. Handing a replica
/// only its own Signer enforces unforgeability in-simulation.
class Signer {
 public:
  Signer(const KeyRegistry* registry, ReplicaId id) : registry_(registry), id_(id) {}

  ReplicaId id() const { return id_; }

  Signature Sign(SignDomain domain, const Hash256& digest) const {
    return Signature{id_, registry_->ComputeMac(id_, domain, digest)};
  }

 private:
  const KeyRegistry* registry_;
  ReplicaId id_;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CRYPTO_SIGNER_H_
