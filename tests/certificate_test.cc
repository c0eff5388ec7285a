// Certificates: vote digests, accumulation, verification, ranking, and the
// dual NewSlot/NewView kinds the slotting design depends on (§6.1).

#include <gtest/gtest.h>

#include "consensus/certificate.h"

namespace hotstuff1 {
namespace {

class CertificateTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kN = 7, kF = 2, kQuorum = kN - kF;
  CertificateTest() : registry_(kN, 42) {}

  Signature Share(ReplicaId r, CertKind kind, uint64_t ctx, BlockId id,
                  const Hash256& hash) {
    SignDomain domain = SignDomain::kProposeVote;
    if (kind == CertKind::kCommit) domain = SignDomain::kCommitVote;
    if (kind == CertKind::kNewSlot) domain = SignDomain::kNewSlot;
    if (kind == CertKind::kNewView) domain = SignDomain::kNewView;
    return Signer(&registry_, r).Sign(domain, VoteDigest(kind, ctx, id, hash));
  }

  Certificate MakeCert(CertKind kind, uint64_t ctx, BlockId id, const Hash256& hash,
                       uint64_t formed_view) {
    VoteAccumulator acc(kind, ctx, id, hash, kQuorum);
    for (ReplicaId r = 0; r < kQuorum; ++r) acc.Add(Share(r, kind, ctx, id, hash));
    return acc.Build(formed_view);
  }

  KeyRegistry registry_;
};

TEST_F(CertificateTest, VoteDigestSeparatesEverything) {
  const Hash256 h = Sha256::Digest("block");
  const Hash256 base = VoteDigest(CertKind::kPrepare, 5, {5, 1}, h);
  EXPECT_NE(base, VoteDigest(CertKind::kCommit, 5, {5, 1}, h));   // kind
  EXPECT_NE(base, VoteDigest(CertKind::kPrepare, 6, {5, 1}, h));  // context
  EXPECT_NE(base, VoteDigest(CertKind::kPrepare, 5, {6, 1}, h));  // view
  EXPECT_NE(base, VoteDigest(CertKind::kPrepare, 5, {5, 2}, h));  // slot
  EXPECT_NE(base, VoteDigest(CertKind::kPrepare, 5, {5, 1}, Sha256::Digest("x")));
}

// The digest a certificate carries is the one its shares sign: for every
// kind, and for a NewView certificate whose formed view differs from the
// block's view; copies keep it.
TEST_F(CertificateTest, CarriedVoteDigestMatchesVoteDigest) {
  const Hash256 h = Sha256::Digest("block");
  const BlockId id{6, 2};
  for (CertKind kind : {CertKind::kPrepare, CertKind::kCommit, CertKind::kNewSlot}) {
    const Certificate cert = MakeCert(kind, 6, id, h, 6);
    EXPECT_EQ(cert.vote_digest(), VoteDigest(kind, 6, id, h)) << CertKindName(kind);
    EXPECT_TRUE(cert.Verify(registry_, kQuorum).ok()) << CertKindName(kind);
  }
  const Certificate nv = MakeCert(CertKind::kNewView, 9, id, h, 9);
  EXPECT_EQ(nv.vote_digest(), VoteDigest(CertKind::kNewView, 9, id, h));
  EXPECT_NE(nv.vote_digest(), VoteDigest(CertKind::kNewView, 6, id, h));
  EXPECT_TRUE(nv.Verify(registry_, kQuorum).ok());
  Certificate copy = nv;
  EXPECT_EQ(copy.vote_digest(), nv.vote_digest());
  const Certificate moved = std::move(copy);
  EXPECT_EQ(moved.vote_digest(), nv.vote_digest());
  copy = MakeCert(CertKind::kPrepare, 6, id, h, 6);
  EXPECT_EQ(copy.vote_digest(), VoteDigest(CertKind::kPrepare, 6, id, h));

  const Certificate genesis = Certificate::Genesis();
  EXPECT_EQ(genesis.vote_digest(),
            VoteDigest(CertKind::kPrepare, 0, {0, 0}, Block::Genesis()->hash()));
  EXPECT_EQ(Certificate().vote_digest(), VoteDigest(CertKind::kPrepare, 0, {0, 0}, Hash256{}));
}

TEST_F(CertificateTest, GenesisVerifiesTrivially) {
  const Certificate g = Certificate::Genesis();
  EXPECT_TRUE(g.IsGenesis());
  EXPECT_TRUE(g.Verify(registry_, kQuorum).ok());
  EXPECT_EQ(g.block_hash(), Block::Genesis()->hash());
}

TEST_F(CertificateTest, AccumulatorFiresExactlyAtQuorum) {
  const Hash256 h = Sha256::Digest("b1");
  VoteAccumulator acc(CertKind::kPrepare, 1, {1, 1}, h, kQuorum);
  for (ReplicaId r = 0; r + 1 < kQuorum; ++r) {
    EXPECT_FALSE(acc.Add(Share(r, CertKind::kPrepare, 1, {1, 1}, h)));
  }
  EXPECT_FALSE(acc.complete());
  EXPECT_TRUE(acc.Add(Share(kQuorum - 1, CertKind::kPrepare, 1, {1, 1}, h)));
  EXPECT_TRUE(acc.complete());
  // Extra shares do not re-fire.
  EXPECT_FALSE(acc.Add(Share(kQuorum, CertKind::kPrepare, 1, {1, 1}, h)));
}

TEST_F(CertificateTest, AccumulatorRejectsDuplicateSigner) {
  const Hash256 h = Sha256::Digest("b1");
  VoteAccumulator acc(CertKind::kPrepare, 1, {1, 1}, h, kQuorum);
  const Signature s = Share(0, CertKind::kPrepare, 1, {1, 1}, h);
  acc.Add(s);
  acc.Add(s);
  EXPECT_EQ(acc.count(), 1u);
}

TEST_F(CertificateTest, BuiltCertificateVerifies) {
  const Hash256 h = Sha256::Digest("b5");
  const Certificate c = MakeCert(CertKind::kPrepare, 5, {5, 1}, h, 5);
  EXPECT_TRUE(c.Verify(registry_, kQuorum).ok());
  EXPECT_EQ(c.view(), 5u);
  EXPECT_EQ(c.slot(), 1u);
  EXPECT_EQ(c.block_hash(), h);
}

TEST_F(CertificateTest, NewViewCertificateBindsFormedView) {
  // A NewView certificate over block (3, 2) formed in view 4: shares sign
  // context 4, so the certificate only verifies with formed_view = 4.
  const Hash256 h = Sha256::Digest("b(3,2)");
  const Certificate good = MakeCert(CertKind::kNewView, 4, {2, 3}, h, 4);
  EXPECT_TRUE(good.Verify(registry_, kQuorum).ok());
  EXPECT_EQ(good.formed_view(), 4u);

  // Re-labelling the formed view breaks verification (prevents replaying a
  // NewView certificate into another view).
  const Certificate forged(CertKind::kNewView, {2, 3}, h, 5, good.sigs());
  EXPECT_FALSE(forged.Verify(registry_, kQuorum).ok());
}

TEST_F(CertificateTest, KindsDoNotCrossVerify) {
  const Hash256 h = Sha256::Digest("b");
  const Certificate slot_cert = MakeCert(CertKind::kNewSlot, 2, {2, 2}, h, 2);
  EXPECT_TRUE(slot_cert.Verify(registry_, kQuorum).ok());
  // The same signatures repackaged as a Prepare certificate must fail: the
  // domain separation of SignDomain::kNewSlot protects against this.
  const Certificate cross(CertKind::kPrepare, {2, 2}, h, 2, slot_cert.sigs());
  EXPECT_FALSE(cross.Verify(registry_, kQuorum).ok());
}

TEST_F(CertificateTest, UndersizedCertificateFails) {
  const Hash256 h = Sha256::Digest("b");
  VoteAccumulator acc(CertKind::kPrepare, 1, {1, 1}, h, kQuorum - 1);
  for (ReplicaId r = 0; r < kQuorum - 1; ++r) {
    acc.Add(Share(r, CertKind::kPrepare, 1, {1, 1}, h));
  }
  const Certificate small = acc.Build();
  EXPECT_FALSE(small.Verify(registry_, kQuorum).ok());
}

// --- Shared verification verdict (VerifyOnce) ----------------------------------
// A registry built from another seed rejects every share, so verifying
// against it tells a memoized verdict (passes) from a full check (fails).

TEST_F(CertificateTest, VerifyOnceMemoizesOnTheObjectOnly) {
  const KeyRegistry other(kN, 43);
  const Certificate cert = MakeCert(CertKind::kPrepare, 4, {4, 1}, Sha256::Digest("m"), 4);
  EXPECT_FALSE(cert.VerifyOnce(other, kQuorum).ok());  // failures are not memoized
  ASSERT_TRUE(cert.VerifyOnce(registry_, kQuorum).ok());
  EXPECT_TRUE(cert.VerifyOnce(other, kQuorum).ok());  // memo hit: shares skipped
  // A copy, a move and an assignment all start unverified.
  Certificate copy = cert;
  EXPECT_FALSE(copy.VerifyOnce(other, kQuorum).ok());
  Certificate moved = Certificate(cert);
  EXPECT_FALSE(moved.VerifyOnce(other, kQuorum).ok());
  ASSERT_TRUE(copy.VerifyOnce(registry_, kQuorum).ok());
  copy = MakeCert(CertKind::kPrepare, 5, {5, 1}, Sha256::Digest("m"), 5);
  EXPECT_FALSE(copy.VerifyOnce(other, kQuorum).ok());
}

TEST_F(CertificateTest, VerifyOnceStillRejectsAForgedShareOnAnotherObject) {
  const Hash256 h = Sha256::Digest("m");
  const Certificate good = MakeCert(CertKind::kPrepare, 4, {4, 1}, h, 4);
  ASSERT_TRUE(good.VerifyOnce(registry_, kQuorum).ok());
  // Same content except one share, forged by a Byzantine replica.
  std::vector<Signature> sigs = good.sigs();
  sigs.back().mac = Sha256::Digest("forged");
  const Certificate forged(CertKind::kPrepare, {4, 1}, h, 4, sigs);
  EXPECT_FALSE(forged.VerifyOnce(registry_, kQuorum).ok());
  EXPECT_FALSE(forged.VerifyOnce(registry_, kQuorum).ok());
  EXPECT_TRUE(good.VerifyOnce(registry_, kQuorum).ok());
}

TEST_F(CertificateTest, VerifyOnceRechecksQuorumSize) {
  const Certificate cert = MakeCert(CertKind::kPrepare, 4, {4, 1}, Sha256::Digest("m"), 4);
  ASSERT_TRUE(cert.VerifyOnce(registry_, kQuorum).ok());
  // A larger committee's quorum (after a reconfiguration) is not met.
  const Status st = cert.VerifyOnce(registry_, kQuorum + 1);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("quorum too small"), std::string::npos) << st;
  EXPECT_TRUE(cert.VerifyOnce(registry_, kQuorum).ok());
}

TEST_F(CertificateTest, VerifyNeverShortCircuits) {
  const KeyRegistry other(kN, 43);
  const Certificate cert = MakeCert(CertKind::kPrepare, 4, {4, 1}, Sha256::Digest("m"), 4);
  ASSERT_TRUE(cert.VerifyOnce(registry_, kQuorum).ok());
  EXPECT_FALSE(cert.Verify(other, kQuorum).ok());
  // Genesis carries no shares: it passes at any quorum, memoized or not.
  const Certificate genesis = Certificate::Genesis();
  EXPECT_TRUE(genesis.VerifyOnce(registry_, kQuorum).ok());
  EXPECT_TRUE(genesis.VerifyOnce(registry_, kQuorum).ok());
}

TEST_F(CertificateTest, RankingIsLexicographic) {
  const Hash256 h = Sha256::Digest("b");
  const Certificate low = MakeCert(CertKind::kNewSlot, 2, {2, 4}, h, 2);
  const Certificate high = MakeCert(CertKind::kNewSlot, 3, {3, 1}, h, 3);
  EXPECT_TRUE(low.RanksLowerThan(high));   // view dominates slot
  EXPECT_FALSE(high.RanksLowerThan(low));
  EXPECT_TRUE(low.RanksAtMost(low));
  const Certificate same_view = MakeCert(CertKind::kNewSlot, 3, {3, 2}, h, 3);
  EXPECT_TRUE(high.RanksLowerThan(same_view));  // slot breaks ties
}

TEST_F(CertificateTest, ToStringIsInformative) {
  const Hash256 h = Sha256::Digest("b");
  const Certificate c = MakeCert(CertKind::kNewView, 4, {2, 3}, h, 4);
  const std::string s = c.ToString();
  EXPECT_NE(s.find("NewView"), std::string::npos);
  EXPECT_NE(s.find("fv=4"), std::string::npos);
}

}  // namespace
}  // namespace hotstuff1
