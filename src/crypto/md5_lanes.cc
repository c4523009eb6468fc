/**
 * @file
 * Batched short-message MD5: padding, lane transpose and dispatch.
 *
 * The portable part of the lane kernels. Messages are padded per
 * RFC 1321 (0x80, zeros, 64-bit little-endian bit length) directly
 * into the lane-interleaved word layout and handed to the widest
 * compression the build and CPU allow: AVX-512 sixteen at a time,
 * AVX2 eight at a time, with tails — and every message when no wide
 * kernel is available — going through the scalar one-block kernel
 * below. The Md5 context stays the oracle the tests pin every kernel
 * against.
 */

#include "crypto/md5_lanes.hh"

#include <cstring>

#include "crypto/bytes.hh"
#include "crypto/cpu_features.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace obfusmem {
namespace crypto {

namespace {

enum class LaneMode { Scalar, Avx2, Avx512 };

/**
 * Lane dispatch, latched once
 * (OBFUSMEM_MD5_LANES=avx512|avx2|scalar).
 */
LaneMode
laneMode()
{
    static const LaneMode mode = [] {
        const bool can512 =
            detail::md5LanesAvx512CompiledIn() && cpuHasAvx512f();
        const bool can2 =
            detail::md5LanesAvx2CompiledIn() && cpuHasAvx2();
        const LaneMode widest = can512 ? LaneMode::Avx512
                                : can2 ? LaneMode::Avx2
                                       : LaneMode::Scalar;
        size_t unset = 3;
        size_t pick = env::choice("OBFUSMEM_MD5_LANES",
                                  {"avx512", "avx2", "scalar"}, unset);
        if (pick == 0) {
            if (can512)
                return LaneMode::Avx512;
            warn("OBFUSMEM_MD5_LANES=avx512 but the AVX-512 kernel "
                 "is unavailable ",
                 detail::md5LanesAvx512CompiledIn()
                     ? "(CPU lacks the instructions)"
                     : "(disabled in this build)",
                 "; using the widest available");
            return widest == LaneMode::Avx512 ? LaneMode::Avx2
                                              : widest;
        }
        if (pick == 1) {
            if (can2)
                return LaneMode::Avx2;
            warn("OBFUSMEM_MD5_LANES=avx2 but the AVX2 kernel is "
                 "unavailable ",
                 detail::md5LanesAvx2CompiledIn()
                     ? "(CPU lacks the instructions)"
                     : "(disabled in this build)",
                 "; using scalar");
            return LaneMode::Scalar;
        }
        if (pick == 2)
            return LaneMode::Scalar;
        return widest;
    }();
    return mode;
}

/**
 * Pad + transpose one W-lane group into the interleaved word layout.
 * The RFC 1321 padding of a short message is mostly zeros, so instead
 * of materializing a 64-byte block per lane and re-reading it, zero
 * the word array once and write only the message words, the 0x80
 * boundary word and the bit length (len <= 55 keeps the boundary word
 * clear of the length words).
 */
template <size_t W>
void
packGroup(const uint8_t *msgs, size_t stride, size_t len,
          OBF_SECRET uint32_t *words) // words[16 * W]
{
    const size_t full = len / 4;
    const size_t rem = len % 4;
    std::memset(words, 0, 16 * W * sizeof(uint32_t));
    for (size_t l = 0; l < W; ++l) {
        const uint8_t *msg = msgs + l * stride;
        for (size_t w = 0; w < full; ++w)
            words[w * W + l] = loadLe32(msg + 4 * w);
        uint32_t boundary = 0x80u << (8 * rem);
        for (size_t b = 0; b < rem; ++b)
            boundary |= static_cast<uint32_t>(msg[4 * full + b])
                        << (8 * b);
        words[full * W + l] = boundary;
        words[14 * W + l] = static_cast<uint32_t>(len) * 8;
    }
}

/** Transpose one W-lane group's finished state back into digests. */
template <size_t W>
void
unpackGroup(OBF_SECRET const uint32_t *state, // state[4 * W]
            OBF_SECRET Md5Digest *out)
{
    for (size_t l = 0; l < W; ++l)
        for (size_t s = 0; s < 4; ++s)
            storeLe32(out[l].data() + 4 * s, state[s * W + l]);
}

inline uint32_t
rotl32(uint32_t x, int s)
{
    return (x << s) | (x >> (32 - s));
}

// One MD5 step per round: a = b + ((a + f(b, c, d) + x + k) <<< s).
// F is RFC 1321's (b&c)|(~b&d) in two operations. G's two halves
// (b&d) and (c&~d) share no bits, so G adds them separately and only
// d&b waits for the previous step's b.
inline void
stepF(uint32_t &a, uint32_t b, uint32_t c, uint32_t d, uint32_t x,
      int s, uint32_t k)
{
    a = b + rotl32(a + (d ^ (b & (c ^ d))) + x + k, s);
}

inline void
stepG(uint32_t &a, uint32_t b, uint32_t c, uint32_t d, uint32_t x,
      int s, uint32_t k)
{
    a = b + rotl32(a + (c & ~d) + x + k + (d & b), s);
}

inline void
stepH(uint32_t &a, uint32_t b, uint32_t c, uint32_t d, uint32_t x,
      int s, uint32_t k)
{
    a = b + rotl32(a + (b ^ c ^ d) + x + k, s);
}

inline void
stepI(uint32_t &a, uint32_t b, uint32_t c, uint32_t d, uint32_t x,
      int s, uint32_t k)
{
    a = b + rotl32(a + (c ^ (b | ~d)) + x + k, s);
}

/**
 * One compression of a padded single-block message from the standard
 * IV, straight-line in RFC 1321's step order: every step's round
 * function, message word, rotate and constant is a literal, so there
 * is no per-step branch, table load or index arithmetic. The steps
 * form one serial dependency chain, which bounds the kernel's latency.
 */
inline Md5Digest
compressOneBlock(OBF_SECRET const uint32_t *m) // m[16]
{
    OBF_SECRET uint32_t a = 0x67452301u, b = 0xefcdab89u,
                        c = 0x98badcfeu, d = 0x10325476u;

    stepF(a, b, c, d, m[0], 7, 0xd76aa478u);
    stepF(d, a, b, c, m[1], 12, 0xe8c7b756u);
    stepF(c, d, a, b, m[2], 17, 0x242070dbu);
    stepF(b, c, d, a, m[3], 22, 0xc1bdceeeu);
    stepF(a, b, c, d, m[4], 7, 0xf57c0fafu);
    stepF(d, a, b, c, m[5], 12, 0x4787c62au);
    stepF(c, d, a, b, m[6], 17, 0xa8304613u);
    stepF(b, c, d, a, m[7], 22, 0xfd469501u);
    stepF(a, b, c, d, m[8], 7, 0x698098d8u);
    stepF(d, a, b, c, m[9], 12, 0x8b44f7afu);
    stepF(c, d, a, b, m[10], 17, 0xffff5bb1u);
    stepF(b, c, d, a, m[11], 22, 0x895cd7beu);
    stepF(a, b, c, d, m[12], 7, 0x6b901122u);
    stepF(d, a, b, c, m[13], 12, 0xfd987193u);
    stepF(c, d, a, b, m[14], 17, 0xa679438eu);
    stepF(b, c, d, a, m[15], 22, 0x49b40821u);

    stepG(a, b, c, d, m[1], 5, 0xf61e2562u);
    stepG(d, a, b, c, m[6], 9, 0xc040b340u);
    stepG(c, d, a, b, m[11], 14, 0x265e5a51u);
    stepG(b, c, d, a, m[0], 20, 0xe9b6c7aau);
    stepG(a, b, c, d, m[5], 5, 0xd62f105du);
    stepG(d, a, b, c, m[10], 9, 0x02441453u);
    stepG(c, d, a, b, m[15], 14, 0xd8a1e681u);
    stepG(b, c, d, a, m[4], 20, 0xe7d3fbc8u);
    stepG(a, b, c, d, m[9], 5, 0x21e1cde6u);
    stepG(d, a, b, c, m[14], 9, 0xc33707d6u);
    stepG(c, d, a, b, m[3], 14, 0xf4d50d87u);
    stepG(b, c, d, a, m[8], 20, 0x455a14edu);
    stepG(a, b, c, d, m[13], 5, 0xa9e3e905u);
    stepG(d, a, b, c, m[2], 9, 0xfcefa3f8u);
    stepG(c, d, a, b, m[7], 14, 0x676f02d9u);
    stepG(b, c, d, a, m[12], 20, 0x8d2a4c8au);

    stepH(a, b, c, d, m[5], 4, 0xfffa3942u);
    stepH(d, a, b, c, m[8], 11, 0x8771f681u);
    stepH(c, d, a, b, m[11], 16, 0x6d9d6122u);
    stepH(b, c, d, a, m[14], 23, 0xfde5380cu);
    stepH(a, b, c, d, m[1], 4, 0xa4beea44u);
    stepH(d, a, b, c, m[4], 11, 0x4bdecfa9u);
    stepH(c, d, a, b, m[7], 16, 0xf6bb4b60u);
    stepH(b, c, d, a, m[10], 23, 0xbebfbc70u);
    stepH(a, b, c, d, m[13], 4, 0x289b7ec6u);
    stepH(d, a, b, c, m[0], 11, 0xeaa127fau);
    stepH(c, d, a, b, m[3], 16, 0xd4ef3085u);
    stepH(b, c, d, a, m[6], 23, 0x04881d05u);
    stepH(a, b, c, d, m[9], 4, 0xd9d4d039u);
    stepH(d, a, b, c, m[12], 11, 0xe6db99e5u);
    stepH(c, d, a, b, m[15], 16, 0x1fa27cf8u);
    stepH(b, c, d, a, m[2], 23, 0xc4ac5665u);

    stepI(a, b, c, d, m[0], 6, 0xf4292244u);
    stepI(d, a, b, c, m[7], 10, 0x432aff97u);
    stepI(c, d, a, b, m[14], 15, 0xab9423a7u);
    stepI(b, c, d, a, m[5], 21, 0xfc93a039u);
    stepI(a, b, c, d, m[12], 6, 0x655b59c3u);
    stepI(d, a, b, c, m[3], 10, 0x8f0ccc92u);
    stepI(c, d, a, b, m[10], 15, 0xffeff47du);
    stepI(b, c, d, a, m[1], 21, 0x85845dd1u);
    stepI(a, b, c, d, m[8], 6, 0x6fa87e4fu);
    stepI(d, a, b, c, m[15], 10, 0xfe2ce6e0u);
    stepI(c, d, a, b, m[6], 15, 0xa3014314u);
    stepI(b, c, d, a, m[13], 21, 0x4e0811a1u);
    stepI(a, b, c, d, m[4], 6, 0xf7537e82u);
    stepI(d, a, b, c, m[11], 10, 0xbd3af235u);
    stepI(c, d, a, b, m[2], 15, 0x2ad7d2bbu);
    stepI(b, c, d, a, m[9], 21, 0xeb86d391u);

    OBF_SECRET Md5Digest out;
    storeLe32(out.data() + 0, a + 0x67452301u);
    storeLe32(out.data() + 4, b + 0xefcdab89u);
    storeLe32(out.data() + 8, c + 0x98badcfeu);
    storeLe32(out.data() + 12, d + 0x10325476u);
    return out;
}

/** Digest one short message through the one-block kernel. */
Md5Digest
digestOne(const uint8_t *msg, size_t len)
{
    OBF_SECRET uint32_t words[16];
    packGroup<1>(msg, 0, len, words);
    return compressOneBlock(words);
}

/** Digest md5LaneWidth messages through the AVX2 kernel. */
void
digestGroupAvx2(const uint8_t *msgs, size_t stride, size_t len,
                OBF_SECRET Md5Digest *out)
{
    OBF_SECRET uint32_t words[16 * md5LaneWidth];
    OBF_SECRET uint32_t state[4 * md5LaneWidth];
    packGroup<md5LaneWidth>(msgs, stride, len, words);
    detail::md5LanesAvx2Compress8(words, state);
    unpackGroup<md5LaneWidth>(state, out);
}

/** Digest two lane groups through the interleaved-pair kernel. */
void
digestGroupPairAvx2(const uint8_t *msgs, size_t stride, size_t len,
                    OBF_SECRET Md5Digest *out)
{
    OBF_SECRET uint32_t words0[16 * md5LaneWidth];
    OBF_SECRET uint32_t words1[16 * md5LaneWidth];
    OBF_SECRET uint32_t state0[4 * md5LaneWidth];
    OBF_SECRET uint32_t state1[4 * md5LaneWidth];
    packGroup<md5LaneWidth>(msgs, stride, len, words0);
    packGroup<md5LaneWidth>(msgs + md5LaneWidth * stride, stride, len,
                            words1);
    detail::md5LanesAvx2Compress8x2(words0, state0, words1, state1);
    unpackGroup<md5LaneWidth>(state0, out);
    unpackGroup<md5LaneWidth>(state1, out + md5LaneWidth);
}

/** Digest md5LaneWidthZmm messages through the AVX-512 kernel. */
void
digestGroupAvx512(const uint8_t *msgs, size_t stride, size_t len,
                  OBF_SECRET Md5Digest *out)
{
    OBF_SECRET uint32_t words[16 * md5LaneWidthZmm];
    OBF_SECRET uint32_t state[4 * md5LaneWidthZmm];
    packGroup<md5LaneWidthZmm>(msgs, stride, len, words);
    detail::md5LanesAvx512Compress16(words, state);
    unpackGroup<md5LaneWidthZmm>(state, out);
}

/** Digest two 16-lane groups through the interleaved-pair kernel. */
void
digestGroupPairAvx512(const uint8_t *msgs, size_t stride, size_t len,
                      OBF_SECRET Md5Digest *out)
{
    OBF_SECRET uint32_t words0[16 * md5LaneWidthZmm];
    OBF_SECRET uint32_t words1[16 * md5LaneWidthZmm];
    OBF_SECRET uint32_t state0[4 * md5LaneWidthZmm];
    OBF_SECRET uint32_t state1[4 * md5LaneWidthZmm];
    packGroup<md5LaneWidthZmm>(msgs, stride, len, words0);
    packGroup<md5LaneWidthZmm>(msgs + md5LaneWidthZmm * stride, stride,
                               len, words1);
    detail::md5LanesAvx512Compress16x2(words0, state0, words1, state1);
    unpackGroup<md5LaneWidthZmm>(state0, out);
    unpackGroup<md5LaneWidthZmm>(state1, out + md5LaneWidthZmm);
}

} // namespace

bool
md5LanesAvailable()
{
    return (detail::md5LanesAvx2CompiledIn() && cpuHasAvx2())
           || (detail::md5LanesAvx512CompiledIn() && cpuHasAvx512f());
}

void
md5ShortBatch(const uint8_t *msgs, size_t stride, size_t len,
              size_t n, OBF_SECRET Md5Digest *out)
{
    panic_if(len > md5ShortMax,
             "md5ShortBatch message of ", len,
             " bytes does not fit one compression block");

    size_t i = 0;
    LaneMode mode = laneMode();
    if (mode == LaneMode::Avx512) {
        for (; i + 2 * md5LaneWidthZmm <= n; i += 2 * md5LaneWidthZmm)
            digestGroupPairAvx512(msgs + i * stride, stride, len,
                                  out + i);
        for (; i + md5LaneWidthZmm <= n; i += md5LaneWidthZmm)
            digestGroupAvx512(msgs + i * stride, stride, len, out + i);
        // Sub-16 tails drain through the ymm kernel when it exists
        // (every AVX-512F CPU also runs AVX2, but the build may have
        // gated the ymm TU off).
        if (detail::md5LanesAvx2CompiledIn() && cpuHasAvx2())
            mode = LaneMode::Avx2;
    }
    if (mode == LaneMode::Avx2) {
        for (; i + 2 * md5LaneWidth <= n; i += 2 * md5LaneWidth)
            digestGroupPairAvx2(msgs + i * stride, stride, len,
                                out + i);
        for (; i + md5LaneWidth <= n; i += md5LaneWidth)
            digestGroupAvx2(msgs + i * stride, stride, len, out + i);
    }
    for (; i < n; ++i)
        out[i] = digestOne(msgs + i * stride, len);
}

Md5Digest
md5Rac(uint8_t r, uint64_t a, uint64_t c)
{
    // Preimage bytes 0..16 are r | a | c, byte 17 is the 0x80 padding
    // boundary and word 14 holds the bit length; the rest is zeros.
    OBF_SECRET const uint32_t words[16] = {
        r | static_cast<uint32_t>(a << 8),
        static_cast<uint32_t>(a >> 24),
        static_cast<uint32_t>(a >> 56) | static_cast<uint32_t>(c << 8),
        static_cast<uint32_t>(c >> 24),
        static_cast<uint32_t>(c >> 56) | 0x8000u,
        0, 0, 0, 0, 0, 0, 0, 0, 0,
        static_cast<uint32_t>(md5RacLen * 8),
        0,
    };
    return compressOneBlock(words);
}

} // namespace crypto
} // namespace obfusmem
