// SHA-256 against FIPS 180-4 / NIST test vectors, plus the signature
// substrate's unforgeability-relevant behaviours.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "crypto/sha256.h"
#include "crypto/signer.h"

namespace hotstuff1 {
namespace {

// --- SHA-256 known-answer tests -------------------------------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::Digest("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Digest("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::Digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(chunk);
  EXPECT_EQ(ctx.Finish().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64-byte message exercises the padding-into-second-block path.
  const std::string m(64, 'x');
  EXPECT_EQ(Sha256::Digest(m).ToHex(), Sha256::Digest(m.data(), 64).ToHex());
  // 55/56/57 bytes straddle the length-field boundary.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
    const std::string s(len, 'y');
    Sha256 one_shot;
    one_shot.Update(s);
    Sha256 split;
    split.Update(s.substr(0, len / 2));
    split.Update(s.substr(len / 2));
    EXPECT_EQ(one_shot.Finish().ToHex(), split.Finish().ToHex()) << len;
  }
}

// Exact digests where the padding changes shape: at 55 bytes the 0x80 and
// the length still fit the last block, 56..63 push the length into an extra
// block, and 64, 65 and 119 sit on or just past whole blocks. Expected
// values are reference SHA-256 outputs for bytes (31 i + 7) mod 256.
TEST(Sha256Test, PaddingBoundaryDigests) {
  const std::pair<size_t, const char*> kCases[] = {
      {55, "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b"},
      {56, "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63"},
      {63, "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076"},
      {64, "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd"},
      {65, "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0"},
      {119, "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe"},
  };
  for (const auto& [len, hex] : kCases) {
    std::string msg(len, '\0');
    for (size_t i = 0; i < len; ++i) msg[i] = static_cast<char>(i * 31 + 7);
    EXPECT_EQ(Sha256::Digest(msg).ToHex(), hex) << "len " << len;
    Sha256 pieces;  // the same message in uneven pieces
    for (size_t i = 0; i < len; i += 13) pieces.Update(msg.substr(i, 13));
    EXPECT_EQ(pieces.Finish().ToHex(), hex) << "len " << len << " in pieces";
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 ctx;
  for (char c : msg) ctx.Update(&c, 1);
  EXPECT_EQ(ctx.Finish(), Sha256::Digest(msg));
}

TEST(Sha256Test, ResetReusesContext) {
  Sha256 ctx;
  ctx.Update("garbage");
  (void)ctx.Finish();
  ctx.Reset();
  ctx.Update("abc");
  EXPECT_EQ(ctx.Finish(), Sha256::Digest("abc"));
}

TEST(Sha256Test, UpdateU64IsLittleEndian) {
  Sha256 a, b;
  a.UpdateU64(0x0102030405060708ULL);
  const uint8_t bytes[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  b.Update(bytes, 8);
  EXPECT_EQ(a.Finish(), b.Finish());
}

// --- Hash256 ---------------------------------------------------------------------

TEST(Hash256Test, ZeroDetection) {
  Hash256 z;
  EXPECT_TRUE(z.IsZero());
  z.bytes[31] = 1;
  EXPECT_FALSE(z.IsZero());
}

TEST(Hash256Test, OrderingAndPrefix) {
  const Hash256 a = Sha256::Digest("a");
  const Hash256 b = Sha256::Digest("b");
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_NE(a.Prefix64(), b.Prefix64());
  EXPECT_EQ(a.Short().size(), 8u);
  EXPECT_EQ(a.ToHex().size(), 64u);
}

// --- Signer / KeyRegistry --------------------------------------------------------

TEST(SignerTest, SignVerifyRoundTrip) {
  KeyRegistry registry(4, 1);
  Signer signer(&registry, 2);
  const Hash256 digest = Sha256::Digest("vote payload");
  const Signature sig = signer.Sign(SignDomain::kProposeVote, digest);
  EXPECT_EQ(sig.signer, 2u);
  EXPECT_TRUE(registry.Verify(sig, SignDomain::kProposeVote, digest));
}

TEST(SignerTest, WrongDomainRejected) {
  KeyRegistry registry(4, 1);
  Signer signer(&registry, 0);
  const Hash256 digest = Sha256::Digest("payload");
  const Signature sig = signer.Sign(SignDomain::kProposeVote, digest);
  EXPECT_FALSE(registry.Verify(sig, SignDomain::kCommitVote, digest));
  EXPECT_FALSE(registry.Verify(sig, SignDomain::kNewView, digest));
}

TEST(SignerTest, WrongDigestRejected) {
  KeyRegistry registry(4, 1);
  Signer signer(&registry, 0);
  const Signature sig = signer.Sign(SignDomain::kWish, Sha256::Digest("a"));
  EXPECT_FALSE(registry.Verify(sig, SignDomain::kWish, Sha256::Digest("b")));
}

TEST(SignerTest, ForgedSignerIdRejected) {
  KeyRegistry registry(4, 1);
  Signer signer(&registry, 0);
  const Hash256 digest = Sha256::Digest("x");
  Signature sig = signer.Sign(SignDomain::kWish, digest);
  sig.signer = 1;  // claim another identity, keep the MAC
  EXPECT_FALSE(registry.Verify(sig, SignDomain::kWish, digest));
  sig.signer = 99;  // out of range
  EXPECT_FALSE(registry.Verify(sig, SignDomain::kWish, digest));
}

TEST(SignerTest, KeysDifferAcrossReplicasAndSeeds) {
  KeyRegistry r1(2, 1), r2(2, 2);
  const Hash256 digest = Sha256::Digest("m");
  const Signature s0 = Signer(&r1, 0).Sign(SignDomain::kWish, digest);
  const Signature s1 = Signer(&r1, 1).Sign(SignDomain::kWish, digest);
  EXPECT_NE(s0.mac, s1.mac);
  const Signature s0b = Signer(&r2, 0).Sign(SignDomain::kWish, digest);
  EXPECT_NE(s0.mac, s0b.mac);
}

TEST(SignerTest, QuorumVerification) {
  const uint32_t n = 7, f = 2, quorum = n - f;
  KeyRegistry registry(n, 3);
  const Hash256 digest = Sha256::Digest("block");
  std::vector<Signature> sigs;
  for (uint32_t i = 0; i < quorum; ++i) {
    sigs.push_back(Signer(&registry, i).Sign(SignDomain::kProposeVote, digest));
  }
  EXPECT_TRUE(registry.VerifyQuorum(sigs, SignDomain::kProposeVote, digest, quorum).ok());

  // Too few.
  std::vector<Signature> few(sigs.begin(), sigs.end() - 1);
  EXPECT_TRUE(registry.VerifyQuorum(few, SignDomain::kProposeVote, digest, quorum)
                  .IsUnauthenticated());

  // Duplicate signer cannot substitute for a distinct one.
  std::vector<Signature> dup = few;
  dup.push_back(few[0]);
  EXPECT_TRUE(registry.VerifyQuorum(dup, SignDomain::kProposeVote, digest, quorum)
                  .IsUnauthenticated());

  // One corrupted share poisons the quorum.
  std::vector<Signature> bad = sigs;
  bad[1].mac.bytes[0] ^= 0xff;
  EXPECT_TRUE(registry.VerifyQuorum(bad, SignDomain::kProposeVote, digest, quorum)
                  .IsUnauthenticated());
}

}  // namespace
}  // namespace hotstuff1
