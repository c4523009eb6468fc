/**
 * @file
 * VAES/AVX-512 wide-lane path for Aes128.
 *
 * This translation unit is the only one compiled with
 * -mvaes/-mavx512f/-mavx512bw/-mavx512vl (see src/crypto/CMakeLists.txt),
 * mirroring the AES-NI isolation pattern: the wide intrinsics never leak
 * into code that may run on a CPU without them, and callers reach the
 * path only through detail::vaesEncryptBlocks after Aes128's dispatch
 * has checked vaesCompiledIn() + cpuHasVaes512().
 *
 * One zmm register holds four independent AES states, and
 * _mm512_aesenc_epi128 advances all four per instruction. The main loop
 * keeps four zmm registers (16 blocks) in flight — the same
 * latency-hiding structure as the 8-wide AES-NI loop, but with 4 blocks
 * per instruction instead of 1. Tails shorter than a full register fall
 * back to 128-bit AES-NI lanes (this TU is compiled with -maes too), so
 * vaesAvailable() requires aesniAvailable().
 */

#include "crypto/aes128.hh"
#include "util/logging.hh"

#if defined(OBFUSMEM_HAVE_VAES) && defined(__VAES__) && defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace obfusmem {
namespace crypto {
namespace detail {

#if defined(OBFUSMEM_HAVE_VAES) && defined(__VAES__) && defined(__AVX512F__)

namespace {

inline __m128i
load128(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

inline void
store128(uint8_t *p, __m128i v)
{
    _mm_storeu_si128(reinterpret_cast<__m128i *>(p), v);
}

inline __m512i
load512(const Block128 *p)
{
    return _mm512_loadu_si512(reinterpret_cast<const void *>(p));
}

inline void
store512(Block128 *p, __m512i v)
{
    _mm512_storeu_si512(reinterpret_cast<void *>(p), v);
}

} // namespace

bool
vaesCompiledIn()
{
    return true;
}

void
vaesEncryptBlocks(const Aes128::RoundKeys &schedule,
                  const Block128 *in, Block128 *out, size_t n)
{
    // Each round key broadcast to all four 128-bit lanes of a zmm.
    // The all-ones zero-mask form is the same vbroadcasti32x4 as
    // _mm512_broadcast_i32x4, whose gcc 12 expansion reads an
    // undefined source operand and trips -Wuninitialized.
    __m512i rk[11];
    __m128i rk128[11];
    for (int r = 0; r < 11; ++r) {
        rk128[r] = load128(schedule[r].data());
        rk[r] = _mm512_maskz_broadcast_i32x4(0xffff, rk128[r]);
    }

    size_t i = 0;
    // 16 blocks (4 zmm) per pass: enough independent aesenc chains to
    // cover the instruction latency at its 1/cycle throughput.
    for (; i + 16 <= n; i += 16) {
        __m512i s0 = _mm512_xor_si512(load512(in + i + 0), rk[0]);
        __m512i s1 = _mm512_xor_si512(load512(in + i + 4), rk[0]);
        __m512i s2 = _mm512_xor_si512(load512(in + i + 8), rk[0]);
        __m512i s3 = _mm512_xor_si512(load512(in + i + 12), rk[0]);
        for (int r = 1; r < 10; ++r) {
            s0 = _mm512_aesenc_epi128(s0, rk[r]);
            s1 = _mm512_aesenc_epi128(s1, rk[r]);
            s2 = _mm512_aesenc_epi128(s2, rk[r]);
            s3 = _mm512_aesenc_epi128(s3, rk[r]);
        }
        store512(out + i + 0, _mm512_aesenclast_epi128(s0, rk[10]));
        store512(out + i + 4, _mm512_aesenclast_epi128(s1, rk[10]));
        store512(out + i + 8, _mm512_aesenclast_epi128(s2, rk[10]));
        store512(out + i + 12, _mm512_aesenclast_epi128(s3, rk[10]));
    }
    for (; i + 4 <= n; i += 4) {
        __m512i s = _mm512_xor_si512(load512(in + i), rk[0]);
        for (int r = 1; r < 10; ++r)
            s = _mm512_aesenc_epi128(s, rk[r]);
        store512(out + i, _mm512_aesenclast_epi128(s, rk[10]));
    }
    // Sub-register tail: plain 128-bit AES-NI lanes.
    for (; i < n; ++i) {
        __m128i s = _mm_xor_si128(load128(in[i].data()), rk128[0]);
        for (int r = 1; r < 10; ++r)
            s = _mm_aesenc_si128(s, rk128[r]);
        store128(out[i].data(), _mm_aesenclast_si128(s, rk128[10]));
    }
}

#else // !OBFUSMEM_HAVE_VAES

// Stub build (no AES-NI TU, or a compiler without the flags): the
// dispatch never selects Vaes because vaesCompiledIn() is false, but
// the symbols must exist for the link.

bool
vaesCompiledIn()
{
    return false;
}

void
vaesEncryptBlocks(const Aes128::RoundKeys &, const Block128 *,
                  Block128 *, size_t)
{
    panic("VAES path called in a build without VAES support");
}

#endif // OBFUSMEM_HAVE_VAES

} // namespace detail
} // namespace crypto
} // namespace obfusmem
