/**
 * @file
 * MD5 implementation following RFC 1321: the incremental context and
 * the one-block r|a|c kernel.
 */

#include "crypto/md5.hh"

#include <cstring>

#include "crypto/bytes.hh"

namespace obfusmem {
namespace crypto {

namespace {

const uint32_t kTable[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee,
    0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa,
    0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
    0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05,
    0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039,
    0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
};

const int shifts[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
};

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

} // namespace

void
Md5::reset()
{
    state = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
    totalLen = 0;
    bufferLen = 0;
}

void
Md5::update(const uint8_t *data, size_t len)
{
    totalLen += len;
    while (len > 0) {
        size_t take = std::min(len, buffer.size() - bufferLen);
        std::memcpy(buffer.data() + bufferLen, data, take);
        bufferLen += take;
        data += take;
        len -= take;
        if (bufferLen == buffer.size()) {
            processBlock(buffer.data());
            bufferLen = 0;
        }
    }
}

Md5Digest
Md5::finalize()
{
    uint64_t bit_len = totalLen * 8;
    const uint8_t pad_byte = 0x80;
    update(&pad_byte, 1);
    const uint8_t zero = 0x00;
    while (bufferLen != 56)
        update(&zero, 1);

    uint8_t len_le[8];
    for (int i = 0; i < 8; ++i)
        len_le[i] = static_cast<uint8_t>(bit_len >> (8 * i));
    // update() would recount these; append directly.
    std::memcpy(buffer.data() + 56, len_le, 8);
    processBlock(buffer.data());
    bufferLen = 0;

    Md5Digest out;
    for (int w = 0; w < 4; ++w) {
        for (int b = 0; b < 4; ++b)
            out[4 * w + b] = static_cast<uint8_t>(state[w] >> (8 * b));
    }
    return out;
}

void
Md5::processBlock(const uint8_t *block)
{
    uint32_t m[16];
    for (int i = 0; i < 16; ++i) {
        m[i] = static_cast<uint32_t>(block[4 * i])
               | (static_cast<uint32_t>(block[4 * i + 1]) << 8)
               | (static_cast<uint32_t>(block[4 * i + 2]) << 16)
               | (static_cast<uint32_t>(block[4 * i + 3]) << 24);
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];

    for (int i = 0; i < 64; ++i) {
        uint32_t f;
        int g;
        if (i < 16) {
            f = (b & c) | (~b & d);
            g = i;
        } else if (i < 32) {
            f = (d & b) | (~d & c);
            g = (5 * i + 1) % 16;
        } else if (i < 48) {
            f = b ^ c ^ d;
            g = (3 * i + 5) % 16;
        } else {
            f = c ^ (b | ~d);
            g = (7 * i) % 16;
        }
        uint32_t tmp = d;
        d = c;
        c = b;
        b = b + rotl32(a + f + kTable[i] + m[g], shifts[i]);
        a = tmp;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
}

Md5Digest
Md5::digest(const uint8_t *data, size_t len)
{
    Md5 ctx;
    ctx.update(data, len);
    return ctx.finalize();
}

Md5Digest
Md5::digest(const std::string &s)
{
    return digest(reinterpret_cast<const uint8_t *>(s.data()), s.size());
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
