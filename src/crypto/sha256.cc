#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_internal.h"

#if HS1_SHA256_SHANI_COMPILED
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace hotstuff1 {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

namespace sha256_internal {

void CompressPortable(uint32_t state[8], const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const uint32_t ch = (e & f) ^ (~e & g);
    const uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if HS1_SHA256_SHANI_COMPILED

// The SHA-NI round instructions keep the state as two vectors, ABEF and
// CDGH, and consume the message four words at a time: W[j] holds the
// big-endian words for rounds 4j..4j+3 and K[4j..4j+3] is added to it.
#define HS1_SHANI_TARGET __attribute__((target("sha,sse4.1")))

namespace {

HS1_SHANI_TARGET inline void Rounds4(__m128i& abef, __m128i& cdgh, __m128i w, int j) {
  __m128i wk = _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * j)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  wk = _mm_shuffle_epi32(wk, 0x0E);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
}

// W[j] from W[j-4], W[j-3], W[j-2], W[j-1] (the FIPS 180-4 schedule).
HS1_SHANI_TARGET inline __m128i NextW(__m128i w4, __m128i w3, __m128i w2, __m128i w1) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3), _mm_alignr_epi8(w1, w2, 4));
  return _mm_sha256msg2_epu32(t, w1);
}

HS1_SHANI_TARGET inline __m128i LoadW(const uint8_t* p) {
  const __m128i bswap = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap);
}

}  // namespace

HS1_SHANI_TARGET void CompressShaNi(uint32_t state[8], const uint8_t block[64]) {
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i w0 = LoadW(block);
  __m128i w1 = LoadW(block + 16);
  __m128i w2 = LoadW(block + 32);
  __m128i w3 = LoadW(block + 48);
  Rounds4(abef, cdgh, w0, 0);
  Rounds4(abef, cdgh, w1, 1);
  Rounds4(abef, cdgh, w2, 2);
  Rounds4(abef, cdgh, w3, 3);
  for (int j = 4; j < 16; j += 4) {
    w0 = NextW(w0, w1, w2, w3);
    Rounds4(abef, cdgh, w0, j);
    w1 = NextW(w1, w2, w3, w0);
    Rounds4(abef, cdgh, w1, j + 1);
    w2 = NextW(w2, w3, w0, w1);
    Rounds4(abef, cdgh, w2, j + 2);
    w3 = NextW(w3, w0, w1, w2);
    Rounds4(abef, cdgh, w3, j + 3);
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#undef HS1_SHANI_TARGET

bool CpuHasShaNi() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool ssse3 = (c >> 9) & 1;
  const bool sse41 = (c >> 19) & 1;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  const bool sha = (b >> 29) & 1;
  return sha && ssse3 && sse41;
}

#else

bool CpuHasShaNi() { return false; }

#endif  // HS1_SHA256_SHANI_COMPILED

}  // namespace sha256_internal

namespace {

sha256_internal::CompressFn SelectCompress() {
#if HS1_SHA256_SHANI_COMPILED
  if (sha256_internal::CpuHasShaNi()) return sha256_internal::CompressShaNi;
#endif
  return sha256_internal::CompressPortable;
}

// Constant-initialized to the portable path, so a digest taken during
// another translation unit's static initialization is still correct; the
// dynamic initializer below then upgrades it once, before main.
sha256_internal::CompressFn g_compress = sha256_internal::CompressPortable;
[[maybe_unused]] const bool g_compress_selected = (g_compress = SelectCompress(), true);

}  // namespace

namespace sha256_internal {

const char* ActiveCompressName() {
  return g_compress == CompressPortable ? "portable" : "sha-ni";
}

}  // namespace sha256_internal

void Sha256::Reset() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    const size_t want = 64 - buffer_len_;
    const size_t take = len < want ? len : want;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == 64) {
      g_compress(h_, buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    g_compress(h_, p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Hash256 Sha256::Finish() {
  const uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length in the last
  // 8 bytes of a block — a second block when the 0x80 lands past byte 55.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    g_compress(h_, buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  g_compress(h_, buffer_);

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

Hash256 Sha256::Digest(const void* data, size_t len) {
  Sha256 ctx;
  ctx.Update(data, len);
  return ctx.Finish();
}

}  // namespace hotstuff1
