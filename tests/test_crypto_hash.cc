/**
 * @file
 * Known-answer tests for MD5 (RFC 1321), SHA-1 (RFC 3174 / FIPS
 * 180-1) and HMAC (RFC 2202).
 */

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "crypto/bytes.hh"
#include "crypto/hmac.hh"
#include "crypto/md5.hh"
#include "crypto/sha1.hh"

using namespace obfusmem::crypto;

namespace {

std::string
md5Hex(const std::string &s)
{
    return toHex(Md5::digest(s));
}

std::string
sha1Hex(const std::string &s)
{
    return toHex(Sha1::digest(s));
}

} // namespace

TEST(Md5, Rfc1321TestSuite)
{
    EXPECT_EQ(md5Hex(""), "d41d8cd98f00b204e9800998ecf8427e");
    EXPECT_EQ(md5Hex("a"), "0cc175b9c0f1b6a831c399e269772661");
    EXPECT_EQ(md5Hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
    EXPECT_EQ(md5Hex("message digest"),
              "f96b697d7cb7938d525a2f31aaf161d0");
    EXPECT_EQ(md5Hex("abcdefghijklmnopqrstuvwxyz"),
              "c3fcd3d76192e4007dfb496cca67e13b");
    EXPECT_EQ(md5Hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstu"
                     "vwxyz0123456789"),
              "d174ab98d277d9f5a5611c2c9f419d9f");
    EXPECT_EQ(md5Hex("1234567890123456789012345678901234567890123456"
                     "7890123456789012345678901234567890"),
              "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot)
{
    std::string msg = "the quick brown fox jumps over the lazy dog, "
                      "repeatedly, across block boundaries. ";
    for (int i = 0; i < 4; ++i)
        msg += msg;

    Md5 ctx;
    size_t pos = 0;
    size_t chunk = 7;
    while (pos < msg.size()) {
        size_t n = std::min(chunk, msg.size() - pos);
        ctx.update(reinterpret_cast<const uint8_t *>(msg.data()) + pos,
                   n);
        pos += n;
        chunk = chunk * 3 + 1;
    }
    EXPECT_EQ(toHex(ctx.finalize()), md5Hex(msg));
}

TEST(Md5, ExactBlockSizeMessages)
{
    // 55/56/64/119/128 bytes cross the padding edge cases.
    for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 128u}) {
        std::string msg(len, 'x');
        Md5 ctx;
        ctx.update(reinterpret_cast<const uint8_t *>(msg.data()),
                   msg.size());
        EXPECT_EQ(toHex(ctx.finalize()), md5Hex(msg)) << len;
    }
}

TEST(Sha1, KnownVectors)
{
    EXPECT_EQ(sha1Hex("abc"),
              "a9993e364706816aba3e25717850c26c9cd0d89d");
    EXPECT_EQ(sha1Hex(""),
              "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    EXPECT_EQ(sha1Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlm"
                      "nomnopnopq"),
              "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs)
{
    Sha1 ctx;
    std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) {
        ctx.update(reinterpret_cast<const uint8_t *>(chunk.data()),
                   chunk.size());
    }
    EXPECT_EQ(toHex(ctx.finalize()),
              "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(HmacMd5, Rfc2202Case1)
{
    std::vector<uint8_t> key(16, 0x0b);
    std::string msg = "Hi There";
    auto mac = hmacMd5(key.data(), key.size(),
                       reinterpret_cast<const uint8_t *>(msg.data()),
                       msg.size());
    EXPECT_EQ(toHex(mac), "9294727a3638bb1c13f48ef8158bfc9d");
}

TEST(HmacMd5, Rfc2202Case2)
{
    std::string key = "Jefe";
    std::string msg = "what do ya want for nothing?";
    auto mac = hmacMd5(reinterpret_cast<const uint8_t *>(key.data()),
                       key.size(),
                       reinterpret_cast<const uint8_t *>(msg.data()),
                       msg.size());
    EXPECT_EQ(toHex(mac), "750c783e6ab0b503eaa86e310a5db738");
}

TEST(HmacMd5, Rfc2202Case6LongKey)
{
    std::vector<uint8_t> key(80, 0xaa);
    std::string msg = "Test Using Larger Than Block-Size Key - "
                      "Hash Key First";
    auto mac = hmacMd5(key.data(), key.size(),
                       reinterpret_cast<const uint8_t *>(msg.data()),
                       msg.size());
    EXPECT_EQ(toHex(mac), "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd");
}

TEST(HmacSha1, Rfc2202Case1)
{
    std::vector<uint8_t> key(20, 0x0b);
    std::string msg = "Hi There";
    auto mac = hmacSha1(key.data(), key.size(),
                        reinterpret_cast<const uint8_t *>(msg.data()),
                        msg.size());
    EXPECT_EQ(toHex(mac), "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1, Rfc2202Case2)
{
    std::string key = "Jefe";
    std::string msg = "what do ya want for nothing?";
    auto mac = hmacSha1(reinterpret_cast<const uint8_t *>(key.data()),
                        key.size(),
                        reinterpret_cast<const uint8_t *>(msg.data()),
                        msg.size());
    EXPECT_EQ(toHex(mac), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(Hash, HexRoundTrip)
{
    std::string hex = "00ff17a2deadbeef0123456789abcdef";
    auto bytes = fromHex(hex);
    EXPECT_EQ(toHex(bytes.data(), bytes.size()), hex);
}

TEST(Md5EngineParams, MatchesPaperSynthesis)
{
    // Paper Sec. 4: 64-stage pipeline, 12.5 mW, 0.214 mm^2.
    EXPECT_EQ(Md5EngineParams::pipelineStages, 64u);
    EXPECT_NEAR(Md5EngineParams::powerMw, 12.5, 1e-9);
    EXPECT_NEAR(Md5EngineParams::areaMm2, 0.214, 1e-9);
}

TEST(CtEqual, MatchesAndMismatches)
{
    std::array<uint8_t, 16> a{}, b{};
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = b[i] = static_cast<uint8_t>(i * 7 + 3);
    EXPECT_TRUE(ctEqual(a, b));

    // A difference in any single byte must be caught - ctEqual must
    // not short-circuit correctness while avoiding short-circuit
    // timing.
    for (size_t i = 0; i < a.size(); ++i) {
        std::array<uint8_t, 16> c = b;
        c[i] ^= 0x80;
        EXPECT_FALSE(ctEqual(a, c)) << "byte " << i;
    }
}

TEST(CtEqual, AgreesWithOperatorEq)
{
    // ctEqual guards the MAC verification path; it must agree with
    // plain comparison on every input, differing only in timing.
    std::array<uint8_t, 4> x{1, 2, 3, 4};
    std::array<uint8_t, 4> y{1, 2, 3, 5};
    EXPECT_EQ(ctEqual(x, x), x == x);
    EXPECT_EQ(ctEqual(x, y), x == y);
}

TEST(SecureZero, ClearsBuffer)
{
    std::array<uint8_t, 32> key;
    key.fill(0xa5);
    secureZero(key);
    for (uint8_t byte : key)
        EXPECT_EQ(byte, 0u);
}

TEST(Md5Rac, MatchesTheContextOnThePackedPreimage)
{
    // md5Rac packs its message words straight from r, a and c; it must
    // hash exactly the 17 bytes r | le64(a) | le64(c). The values put
    // set bits on every word boundary of the packing.
    const uint64_t values[] = {0, ~0ull, 0x0102030405060708ull,
                               0xff00000000000000ull, 0xffull,
                               0x00000000ff000000ull};
    for (unsigned r : {0u, 1u, 0x80u, 0xffu}) {
        for (uint64_t a : values) {
            for (uint64_t c : values) {
                uint8_t packed[md5RacLen];
                packed[0] = static_cast<uint8_t>(r);
                storeLe64(packed + 1, a);
                storeLe64(packed + 9, c);
                EXPECT_EQ(md5Rac(static_cast<uint8_t>(r), a, c),
                          Md5::digest(packed, sizeof(packed)))
                    << r << " " << a << " " << c;
            }
        }
    }
}
