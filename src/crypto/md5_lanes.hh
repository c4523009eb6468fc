/**
 * @file
 * Batched MD5 for short messages — the MAC lanes of the SoA pipeline.
 *
 * Every MAC ObfusMem computes covers a fixed 17-byte (cmd|addr|counter)
 * message (MacEngine), which after RFC 1321 padding is exactly one
 * 64-byte compression block. That makes the digest a pure function of
 * one block, and a batch of them embarrassingly lane-parallel: the
 * AVX2 kernel runs eight independent single-block compressions in the
 * eight 32-bit lanes of a ymm register, one MD5 step per instruction
 * group instead of one per message.
 *
 * Layout contract with the AVX2 kernel: both the message words and the
 * chaining state are lane-interleaved, i.e. word `w` of lane `l` lives
 * at index `w * md5LaneWidth + l`, so each of the 16 message words (and
 * each of the 4 state words) is one contiguous, directly loadable
 * 32-byte vector.
 *
 * Messages that do not fill a wide group go one at a time through a
 * scalar one-block kernel: the 64 steps spelled out with literal
 * round functions, message indices and rotates, and no Md5 context.
 * The bus MAC's r|a|c preimage has its own entry (md5Rac) that packs
 * the five message words straight from its fields.
 *
 * Bit-identical to Md5::digest per message by construction; the tests
 * pin every lane against the scalar context.
 */

#ifndef OBFUSMEM_CRYPTO_MD5_LANES_HH
#define OBFUSMEM_CRYPTO_MD5_LANES_HH

#include <cstddef>
#include <cstdint>

#include "crypto/bytes.hh"
#include "crypto/md5.hh"
#include "util/secret.hh"

namespace obfusmem {
namespace crypto {

/** Lanes per AVX2 compression (32-bit lanes of a ymm register). */
constexpr size_t md5LaneWidth = 8;

/** Lanes per AVX-512 compression (32-bit lanes of a zmm register). */
constexpr size_t md5LaneWidthZmm = 16;

/** Longest message that still pads into a single compression block. */
constexpr size_t md5ShortMax = 55;

/**
 * One-shot MD5 digests for `n` equal-length short messages
 * (`len <= md5ShortMax`), packed `stride` bytes apart starting at
 * `msgs`. Dispatches to the widest kernel the build and the running
 * CPU allow — AVX-512 16-lane, then AVX2 8-lane, then the scalar
 * one-block kernel (override with OBFUSMEM_MD5_LANES=avx512|avx2|scalar;
 * a forced avx512 run still drains sub-group tails through the
 * narrower kernels). Output digests are bit-identical on every path.
 */
void md5ShortBatch(const uint8_t *msgs, size_t stride, size_t len,
                   size_t n, OBF_SECRET Md5Digest *out);

/**
 * Bytes in the bus-MAC preimage H(r | a | c) (paper Sec. 3.5): the
 * request-type byte r, then the address a and the counter c as
 * little-endian 64-bit words.
 */
constexpr size_t md5RacLen = 17;

/** Write the r|a|c preimage into `out[md5RacLen]`. */
inline void
md5PackRac(uint8_t r, uint64_t a, uint64_t c, uint8_t *out)
{
    out[0] = r;
    storeLe64(out + 1, a);
    storeLe64(out + 9, c);
}

/**
 * MD5 of one r|a|c preimage through the scalar one-block kernel,
 * equal to Md5::digest of md5PackRac's bytes. The message words come
 * straight from the three fields; the padding words are constants.
 */
OBF_SECRET Md5Digest md5Rac(uint8_t r, uint64_t a, uint64_t c);

/** True when the AVX2 kernel is compiled in and the CPU runs it. */
bool md5LanesAvailable();

namespace detail {

/**
 * AVX2 entry points, defined in md5_lanes_avx2.cc — the only
 * translation unit built with -mavx2, mirroring the aes128_aesni.cc
 * isolation pattern. Panicking stub + false when the build gates the
 * kernel off (-DOBFUSMEM_DISABLE_AVX2=ON or a compiler without the
 * flag).
 */
bool md5LanesAvx2CompiledIn();

/**
 * Eight single-block MD5 compressions from the standard IV. `words`
 * holds the 16 message words of all 8 lanes in the interleaved layout
 * described above; `state` receives the 4 finalized chaining words per
 * lane in the same layout.
 */
void md5LanesAvx2Compress8(OBF_SECRET const uint32_t *words,
                           OBF_SECRET uint32_t *state);

/**
 * Two independent 8-lane compressions interleaved in one pass.
 * Every MD5 step is a serial dependency chain on its own lanes, so a
 * single 8-lane group leaves most execution ports idle; running a
 * second group through the same instruction stream roughly doubles
 * throughput without touching the per-group layout contract.
 */
void md5LanesAvx2Compress8x2(OBF_SECRET const uint32_t *words0,
                             OBF_SECRET uint32_t *state0,
                             OBF_SECRET const uint32_t *words1,
                             OBF_SECRET uint32_t *state1);

/**
 * AVX-512 entry points, defined in md5_lanes_avx512.cc (the only TU
 * built with -mavx512f). The zmm kernel is more than twice the ymm
 * kernel's throughput per group: 16 lanes instead of 8, a native
 * 32-bit rotate, and each round function folded into a single
 * vpternlogd. Layout matches the AVX2 contract with
 * md5LaneWidthZmm-interleaved words (word `w`, lane `l` at
 * `w * md5LaneWidthZmm + l`).
 */
bool md5LanesAvx512CompiledIn();

/** Sixteen single-block MD5 compressions from the standard IV. */
void md5LanesAvx512Compress16(OBF_SECRET const uint32_t *words,
                              OBF_SECRET uint32_t *state);

/** Two independent 16-lane compressions interleaved in one pass. */
void md5LanesAvx512Compress16x2(OBF_SECRET const uint32_t *words0,
                                OBF_SECRET uint32_t *state0,
                                OBF_SECRET const uint32_t *words1,
                                OBF_SECRET uint32_t *state1);

} // namespace detail

} // namespace crypto
} // namespace obfusmem

#endif // OBFUSMEM_CRYPTO_MD5_LANES_HH
