// SHA-256 compression functions behind Sha256, exposed so tests can compare
// the implementations directly. Not part of the public crypto API.
//
// Sha256 picks one compression function once, at static initialization,
// from CPUID: the SHA-NI path when the CPU has the SHA extensions plus
// SSSE3 and SSE4.1, the portable reference otherwise. Both produce the same
// state for every input; there is no flag to choose between them.

#ifndef HOTSTUFF1_CRYPTO_SHA256_INTERNAL_H_
#define HOTSTUFF1_CRYPTO_SHA256_INTERNAL_H_

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define HS1_SHA256_SHANI_COMPILED 1
#else
#define HS1_SHA256_SHANI_COMPILED 0
#endif

namespace hotstuff1::sha256_internal {

/// Applies one 64-byte block to the eight-word chaining state.
using CompressFn = void (*)(uint32_t state[8], const uint8_t block[64]);

/// FIPS 180-4 reference compression in plain C++.
void CompressPortable(uint32_t state[8], const uint8_t block[64]);

#if HS1_SHA256_SHANI_COMPILED
/// x86 SHA extensions. Call only when CpuHasShaNi() is true.
void CompressShaNi(uint32_t state[8], const uint8_t block[64]);
#endif

/// True when SHA-NI is compiled in and this CPU supports it.
bool CpuHasShaNi();

/// Which function Sha256 uses: "sha-ni" or "portable".
const char* ActiveCompressName();

}  // namespace hotstuff1::sha256_internal

#endif  // HOTSTUFF1_CRYPTO_SHA256_INTERNAL_H_
