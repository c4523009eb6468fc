/**
 * @file
 * AES-NI hardware path for Aes128.
 *
 * This translation unit is the only one compiled with -maes (see
 * src/crypto/CMakeLists.txt), so the intrinsics never leak into code
 * that might run on a CPU without the extension; callers reach it
 * through the narrow detail::aesni* interface and must check
 * aesniCompiledIn() + cpuHasAesni() first (Aes128's dispatch does).
 *
 * The key schedule is shared with the portable paths: setKey()
 * expands round keys byte-wise per FIPS-197, and this path simply
 * loads those 11 x 16 bytes into XMM registers. That keeps exactly
 * one key-expansion implementation to audit and makes the three
 * paths interchangeable per block.
 *
 * encryptBlocks runs 8 (then 4) independent blocks through the round
 * loop together. aesenc has multi-cycle latency but single-cycle
 * throughput on every AES-NI core, so interleaving independent
 * blocks fills the pipeline the way the paper's hardware engine fills
 * its 24-stage pipe; this is where the counter-ahead pad prefetcher's
 * batch refills collect their speedup.
 */

#include "crypto/aes128.hh"
#include "util/logging.hh"

#if defined(OBFUSMEM_HAVE_AESNI) && defined(__AES__)
#include <wmmintrin.h>
#endif

namespace obfusmem {
namespace crypto {
namespace detail {

#if defined(OBFUSMEM_HAVE_AESNI) && defined(__AES__)

namespace {

inline __m128i
load(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

inline void
store(uint8_t *p, __m128i v)
{
    _mm_storeu_si128(reinterpret_cast<__m128i *>(p), v);
}

inline __m128i
encryptOne(const __m128i rk[11], __m128i s)
{
    s = _mm_xor_si128(s, rk[0]);
    for (int r = 1; r < 10; ++r)
        s = _mm_aesenc_si128(s, rk[r]);
    return _mm_aesenclast_si128(s, rk[10]);
}

inline void
loadRoundKeys(const Aes128::RoundKeys &schedule, __m128i rk[11])
{
    for (int r = 0; r < 11; ++r)
        rk[r] = load(schedule[r].data());
}

} // namespace

bool
aesniCompiledIn()
{
    return true;
}

Block128
aesniEncryptBlock(const Aes128::RoundKeys &schedule,
                  const Block128 &plaintext)
{
    __m128i rk[11];
    loadRoundKeys(schedule, rk);
    Block128 out;
    store(out.data(), encryptOne(rk, load(plaintext.data())));
    return out;
}

void
aesniEncryptBlocks(const Aes128::RoundKeys &schedule,
                   const Block128 *in, Block128 *out, size_t n)
{
    __m128i rk[11];
    loadRoundKeys(schedule, rk);

    size_t i = 0;
    // 8 independent blocks per pass: enough in-flight aesencs to hide
    // the instruction latency behind its 1/cycle throughput.
    for (; i + 8 <= n; i += 8) {
        __m128i s0 = load(in[i + 0].data());
        __m128i s1 = load(in[i + 1].data());
        __m128i s2 = load(in[i + 2].data());
        __m128i s3 = load(in[i + 3].data());
        __m128i s4 = load(in[i + 4].data());
        __m128i s5 = load(in[i + 5].data());
        __m128i s6 = load(in[i + 6].data());
        __m128i s7 = load(in[i + 7].data());
        s0 = _mm_xor_si128(s0, rk[0]);
        s1 = _mm_xor_si128(s1, rk[0]);
        s2 = _mm_xor_si128(s2, rk[0]);
        s3 = _mm_xor_si128(s3, rk[0]);
        s4 = _mm_xor_si128(s4, rk[0]);
        s5 = _mm_xor_si128(s5, rk[0]);
        s6 = _mm_xor_si128(s6, rk[0]);
        s7 = _mm_xor_si128(s7, rk[0]);
        for (int r = 1; r < 10; ++r) {
            s0 = _mm_aesenc_si128(s0, rk[r]);
            s1 = _mm_aesenc_si128(s1, rk[r]);
            s2 = _mm_aesenc_si128(s2, rk[r]);
            s3 = _mm_aesenc_si128(s3, rk[r]);
            s4 = _mm_aesenc_si128(s4, rk[r]);
            s5 = _mm_aesenc_si128(s5, rk[r]);
            s6 = _mm_aesenc_si128(s6, rk[r]);
            s7 = _mm_aesenc_si128(s7, rk[r]);
        }
        store(out[i + 0].data(), _mm_aesenclast_si128(s0, rk[10]));
        store(out[i + 1].data(), _mm_aesenclast_si128(s1, rk[10]));
        store(out[i + 2].data(), _mm_aesenclast_si128(s2, rk[10]));
        store(out[i + 3].data(), _mm_aesenclast_si128(s3, rk[10]));
        store(out[i + 4].data(), _mm_aesenclast_si128(s4, rk[10]));
        store(out[i + 5].data(), _mm_aesenclast_si128(s5, rk[10]));
        store(out[i + 6].data(), _mm_aesenclast_si128(s6, rk[10]));
        store(out[i + 7].data(), _mm_aesenclast_si128(s7, rk[10]));
    }
    for (; i + 4 <= n; i += 4) {
        __m128i s0 = _mm_xor_si128(load(in[i + 0].data()), rk[0]);
        __m128i s1 = _mm_xor_si128(load(in[i + 1].data()), rk[0]);
        __m128i s2 = _mm_xor_si128(load(in[i + 2].data()), rk[0]);
        __m128i s3 = _mm_xor_si128(load(in[i + 3].data()), rk[0]);
        for (int r = 1; r < 10; ++r) {
            s0 = _mm_aesenc_si128(s0, rk[r]);
            s1 = _mm_aesenc_si128(s1, rk[r]);
            s2 = _mm_aesenc_si128(s2, rk[r]);
            s3 = _mm_aesenc_si128(s3, rk[r]);
        }
        store(out[i + 0].data(), _mm_aesenclast_si128(s0, rk[10]));
        store(out[i + 1].data(), _mm_aesenclast_si128(s1, rk[10]));
        store(out[i + 2].data(), _mm_aesenclast_si128(s2, rk[10]));
        store(out[i + 3].data(), _mm_aesenclast_si128(s3, rk[10]));
    }
    for (; i < n; ++i)
        store(out[i].data(), encryptOne(rk, load(in[i].data())));
}

#else // !OBFUSMEM_HAVE_AESNI

// Stub build (-DOBFUSMEM_DISABLE_AESNI=ON or a non-x86 target): the
// dispatch never selects Aesni because aesniCompiledIn() is false,
// but the symbols must exist for the link.

bool
aesniCompiledIn()
{
    return false;
}

Block128
aesniEncryptBlock(const Aes128::RoundKeys &, const Block128 &)
{
    panic("AES-NI path called in a build without AES-NI support");
}

void
aesniEncryptBlocks(const Aes128::RoundKeys &, const Block128 *,
                   Block128 *, size_t)
{
    panic("AES-NI path called in a build without AES-NI support");
}

#endif // OBFUSMEM_HAVE_AESNI

} // namespace detail
} // namespace crypto
} // namespace obfusmem
