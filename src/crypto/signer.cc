#include "crypto/signer.h"

#include <unordered_set>

namespace hotstuff1 {

KeyRegistry::KeyRegistry(uint32_t n, uint64_t seed) {
  keys_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Sha256 ctx;
    ctx.Update("hs1-keygen");
    ctx.UpdateU64(seed);
    ctx.UpdateU64(i);
    keys_.push_back(ctx.Finish());
  }
}

Hash256 KeyRegistry::ComputeMac(ReplicaId signer, SignDomain domain,
                                const Hash256& digest) const {
  Sha256 ctx;
  ctx.Update(keys_[signer]);
  const uint8_t d = static_cast<uint8_t>(domain);
  ctx.Update(&d, 1);
  ctx.Update(digest);
  return ctx.Finish();
}

bool KeyRegistry::Verify(const Signature& sig, SignDomain domain,
                         const Hash256& digest) const {
  if (sig.signer >= keys_.size()) return false;
  return ComputeMac(sig.signer, domain, digest) == sig.mac;
}

Status KeyRegistry::CheckQuorumSize(size_t shares, uint32_t quorum) {
  if (shares >= quorum) return Status::OK();
  return Status::Unauthenticated("quorum too small: have " + std::to_string(shares) +
                                 ", need " + std::to_string(quorum));
}

Status KeyRegistry::VerifyQuorum(const std::vector<Signature>& sigs,
                                 SignDomain domain, const Hash256& digest,
                                 uint32_t quorum) const {
  if (Status st = CheckQuorumSize(sigs.size(), quorum); !st.ok()) return st;
  std::unordered_set<ReplicaId> seen;
  seen.reserve(sigs.size());
  for (const Signature& sig : sigs) {
    if (!seen.insert(sig.signer).second) {
      return Status::Unauthenticated("duplicate signer " + std::to_string(sig.signer));
    }
    if (!Verify(sig, domain, digest)) {
      return Status::Unauthenticated("invalid signature from replica " +
                                     std::to_string(sig.signer));
    }
  }
  return Status::OK();
}

}  // namespace hotstuff1
