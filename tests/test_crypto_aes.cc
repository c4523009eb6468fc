/**
 * @file
 * AES-128 and AES-CTR tests, including the FIPS-197 known-answer
 * vectors and counter-mode properties ObfusMem depends on.
 */

#include <gtest/gtest.h>

#include <set>

#include "crypto/aes128.hh"
#include "crypto/bytes.hh"
#include "crypto/ctr_mode.hh"
#include "util/random.hh"

using namespace obfusmem;
using namespace obfusmem::crypto;

namespace {

Block128
block(const std::string &hex)
{
    auto v = fromHex(hex);
    Block128 b{};
    std::copy(v.begin(), v.end(), b.begin());
    return b;
}

} // namespace

TEST(Aes128, Fips197AppendixB)
{
    // FIPS-197 Appendix B example.
    Aes128 aes(block("2b7e151628aed2a6abf7158809cf4f3c"));
    Block128 ct = aes.encryptBlock(
        block("3243f6a8885a308d313198a2e0370734"));
    EXPECT_EQ(toHex(ct), "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes128, Fips197AppendixC1)
{
    // FIPS-197 Appendix C.1 (AES-128).
    Aes128 aes(block("000102030405060708090a0b0c0d0e0f"));
    Block128 ct = aes.encryptBlock(
        block("00112233445566778899aabbccddeeff"));
    EXPECT_EQ(toHex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, DecryptInvertsEncrypt)
{
    Random rng(1);
    Aes128::Key key;
    rng.fillBytes(key.data(), key.size());
    Aes128 aes(key);
    for (int i = 0; i < 50; ++i) {
        Block128 pt;
        rng.fillBytes(pt.data(), pt.size());
        EXPECT_EQ(aes.decryptBlock(aes.encryptBlock(pt)), pt);
    }
}

TEST(Aes128, DifferentKeysDifferentCiphertexts)
{
    Block128 pt = block("00000000000000000000000000000000");
    Aes128 a(block("00000000000000000000000000000001"));
    Aes128 b(block("00000000000000000000000000000002"));
    EXPECT_NE(a.encryptBlock(pt), b.encryptBlock(pt));
}

TEST(Aes128, SingleBitKeyChangeAvalanche)
{
    Block128 pt = block("00112233445566778899aabbccddeeff");
    Aes128 a(block("000102030405060708090a0b0c0d0e0f"));
    Aes128 b(block("010102030405060708090a0b0c0d0e0f"));
    Block128 ca = a.encryptBlock(pt);
    Block128 cb = b.encryptBlock(pt);
    int diff_bits = 0;
    for (size_t i = 0; i < ca.size(); ++i)
        diff_bits = diff_bits + __builtin_popcount(ca[i] ^ cb[i]);
    // Avalanche: roughly half of the 128 bits flip.
    EXPECT_GT(diff_bits, 40);
    EXPECT_LT(diff_bits, 90);
}

TEST(Aes128, RekeyingWorks)
{
    Block128 pt = block("00112233445566778899aabbccddeeff");
    Aes128 aes(block("000102030405060708090a0b0c0d0e0f"));
    Block128 first = aes.encryptBlock(pt);
    aes.setKey(block("ffeeddccbbaa99887766554433221100"));
    Block128 second = aes.encryptBlock(pt);
    EXPECT_NE(first, second);
    aes.setKey(block("000102030405060708090a0b0c0d0e0f"));
    EXPECT_EQ(aes.encryptBlock(pt), first);
}

TEST(Aes128, EncryptBlocksMatchesBlockwise)
{
    Random rng(7);
    Aes128::Key key;
    rng.fillBytes(key.data(), key.size());
    Aes128 aes(key);

    std::array<Block128, 11> in, out;
    for (auto &b : in)
        rng.fillBytes(b.data(), b.size());
    aes.encryptBlocks(in.data(), out.data(), in.size());
    for (size_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(out[i], aes.encryptBlock(in[i]));

    // In-place (aliased) batching must give the same answer.
    std::array<Block128, 11> aliased = in;
    aes.encryptBlocks(aliased.data(), aliased.data(), aliased.size());
    EXPECT_EQ(aliased, out);
}

TEST(AesCtr, PadMatchesManualConstruction)
{
    Aes128::Key key = block("2b7e151628aed2a6abf7158809cf4f3c");
    uint64_t nonce = 0x1122334455667788ULL;
    AesCtr ctr(key, nonce);

    Block128 iv{};
    storeLe64(iv.data(), nonce);
    storeLe64(iv.data() + 8, 42);
    Aes128 aes(key);
    EXPECT_EQ(ctr.pad(42), aes.encryptBlock(iv));
}

TEST(AesCtr, PadsAreUniquePerCounter)
{
    AesCtr ctr(block("000102030405060708090a0b0c0d0e0f"), 7);
    std::set<std::string> pads;
    for (uint64_t i = 0; i < 500; ++i)
        pads.insert(toHex(ctr.pad(i)));
    EXPECT_EQ(pads.size(), 500u);
}

TEST(AesCtr, GenPadsMatchesSinglePads)
{
    // The batched group-pad API must be equivalent to generating the
    // pads one counter at a time (this is the equivalence the whole
    // wire protocol's pad caching rests on).
    AesCtr ctr(block("2b7e151628aed2a6abf7158809cf4f3c"), 0xabcd);
    for (uint64_t base : {0ull, 1ull, 6ull, 12345ull}) {
        for (size_t n : {1u, 2u, 5u, 6u, 8u}) {
            std::vector<Block128> batch(n);
            ctr.genPads(base, batch.data(), n);
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(batch[i], ctr.pad(base + i))
                    << "base=" << base << " i=" << i;
        }
    }
}

TEST(AesCtr, DifferentNoncesDifferentStreams)
{
    Aes128::Key key = block("000102030405060708090a0b0c0d0e0f");
    AesCtr a(key, 0), b(key, 1);
    EXPECT_NE(a.pad(0), b.pad(0));
}

TEST(AesCtr, KeystreamRoundTrip)
{
    AesCtr ctr(block("2b7e151628aed2a6abf7158809cf4f3c"), 99);
    Random rng(5);
    uint8_t buf[200], orig[200];
    rng.fillBytes(buf, sizeof(buf));
    memcpy(orig, buf, sizeof(buf));

    uint64_t used = ctr.applyKeystream(buf, sizeof(buf), 1000);
    EXPECT_EQ(used, (sizeof(buf) + 15) / 16);
    EXPECT_NE(memcmp(buf, orig, sizeof(buf)), 0);

    ctr.applyKeystream(buf, sizeof(buf), 1000);
    EXPECT_EQ(memcmp(buf, orig, sizeof(buf)), 0);
}

TEST(AesCtr, KeystreamPartialBlock)
{
    AesCtr ctr(block("2b7e151628aed2a6abf7158809cf4f3c"), 3);
    uint8_t buf[5] = {1, 2, 3, 4, 5};
    uint64_t used = ctr.applyKeystream(buf, sizeof(buf), 0);
    EXPECT_EQ(used, 1u);
}

TEST(MemoryEncryptionIv, DistinctFieldsDistinctIvs)
{
    MemoryEncryptionIv a{1, 0, 0, 0};
    MemoryEncryptionIv b{2, 0, 0, 0};
    MemoryEncryptionIv c{1, 1, 0, 0};
    MemoryEncryptionIv d{1, 0, 1, 0};
    MemoryEncryptionIv e{1, 0, 0, 1};
    std::set<std::string> ivs{toHex(a.pack()), toHex(b.pack()),
                              toHex(c.pack()), toHex(d.pack()),
                              toHex(e.pack())};
    EXPECT_EQ(ivs.size(), 5u);
}

TEST(AesEngineParams, MatchesPaperSynthesis)
{
    // Paper Sec. 4: 24-cycle latency at 4 ns, one pad per cycle,
    // 15.1 mW, 0.204 mm^2.
    EXPECT_EQ(AesEngineParams::pipelineDepth, 24u);
    EXPECT_EQ(AesEngineParams::cycleTimePs, 4000u);
    EXPECT_EQ(AesEngineParams::padsPerCycle, 1u);
    EXPECT_NEAR(AesEngineParams::powerMw, 15.1, 1e-9);
    EXPECT_NEAR(AesEngineParams::areaMm2, 0.204, 1e-9);
}

namespace {

bool
implAvailable(AesImpl impl)
{
    switch (impl) {
      case AesImpl::Aesni:
        return Aes128::aesniAvailable();
      case AesImpl::Vaes:
        return Aes128::vaesAvailable();
      default:
        return true;
    }
}

/** The lanes the pad generator dispatches across, widest last. */
constexpr AesImpl kAllImpls[] = {
    AesImpl::Reference, AesImpl::Aesni, AesImpl::Vaes,
};

} // namespace

TEST(Aes128, Fips197EveryImplementation)
{
    // The FIPS-197 Appendix B and C.1 vectors must come out of every
    // lane the dispatch can pick, across a re-key.
    for (AesImpl impl : kAllImpls) {
        if (!implAvailable(impl))
            continue;
        Aes128 aes(block("2b7e151628aed2a6abf7158809cf4f3c"));
        aes.setImpl(impl);
        EXPECT_EQ(toHex(aes.encryptBlock(
                      block("3243f6a8885a308d313198a2e0370734"))),
                  "3925841d02dc09fbdc118597196a0b32")
            << aesImplName(impl);
        aes.setKey(block("000102030405060708090a0b0c0d0e0f"));
        EXPECT_EQ(toHex(aes.encryptBlock(
                      block("00112233445566778899aabbccddeeff"))),
                  "69c4e0d86a7b0430d8cdb78070b4c55a")
            << aesImplName(impl);
    }
}

TEST(Aes128, EncryptBlocksCrossImplRandomized)
{
    // Randomized equivalence of both entry points across every
    // available implementation and many random keys. Every batch size
    // up to 20 hits each of the AES-NI 8/4/1-wide legs and the VAES
    // 16-wide/tail split; all run out-of-place and aliased in place
    // against the reference computed block by block.
    Random rng(0xba7c4);
    std::vector<size_t> sizes;
    for (size_t n = 1; n <= 20; ++n)
        sizes.push_back(n);
    sizes.push_back(48);
    for (int k = 0; k < 20; ++k) {
        Aes128::Key key;
        rng.fillBytes(key.data(), key.size());
        Aes128 ref(key);
        ref.setImpl(AesImpl::Reference);
        for (size_t n : sizes) {
            std::vector<Block128> in(n), expect(n);
            for (auto &b : in)
                rng.fillBytes(b.data(), b.size());
            for (size_t i = 0; i < n; ++i)
                expect[i] = ref.encryptBlock(in[i]);
            for (AesImpl impl : kAllImpls) {
                if (!implAvailable(impl))
                    continue;
                Aes128 aes(key);
                aes.setImpl(impl);
                std::vector<Block128> out(n);
                aes.encryptBlocks(in.data(), out.data(), n);
                EXPECT_EQ(out, expect)
                    << aesImplName(impl) << " key=" << k << " n=" << n;
                std::vector<Block128> aliased = in;
                aes.encryptBlocks(aliased.data(), aliased.data(), n);
                EXPECT_EQ(aliased, expect)
                    << aesImplName(impl) << " aliased n=" << n;
                EXPECT_EQ(aes.encryptBlock(in[0]), expect[0])
                    << aesImplName(impl) << " key=" << k;
            }
        }
    }
}

TEST(AesCtr, GenPadsCrossImplEquivalence)
{
    // genPads builds IVs in the output buffer and encrypts them in
    // place (aliased), so every lane must agree on the aliasing
    // contract as well as the ciphertexts. Each pad is pinned to the
    // reference cipher of an IV built by hand, so the pads the
    // prefetch rings serve cannot depend on the lane behind them.
    // Includes the request-group stride (6), one prefetch refill (48)
    // and the bench's per-flush arena size (192).
    Aes128 ref(block("2b7e151628aed2a6abf7158809cf4f3c"));
    ref.setImpl(AesImpl::Reference);
    for (AesImpl impl : kAllImpls) {
        if (!implAvailable(impl))
            continue;
        AesCtr ctr(block("2b7e151628aed2a6abf7158809cf4f3c"), 0xabcd);
        ctr.setImpl(impl);
        for (uint64_t base : {0ull, 6ull, 48ull, 7777ull, 999999ull}) {
            for (size_t n : {1u, 5u, 6u, 17u, 48u, 192u}) {
                std::vector<Block128> got(n);
                ctr.genPads(base, got.data(), n);
                for (size_t i = 0; i < n; ++i) {
                    Block128 iv{};
                    storeLe64(iv.data(), 0xabcd);
                    storeLe64(iv.data() + 8, base + i);
                    EXPECT_EQ(got[i], ref.encryptBlock(iv))
                        << aesImplName(impl) << " base=" << base
                        << " n=" << n << " i=" << i;
                }
            }
        }
    }
}

TEST(Aes128, DefaultImplIsWidestAvailableLane)
{
    // CPUID alone picks the default: VAES, then AES-NI, then the
    // reference path. New instances start on it.
    const AesImpl widest = Aes128::vaesAvailable()    ? AesImpl::Vaes
                           : Aes128::aesniAvailable() ? AesImpl::Aesni
                                                      : AesImpl::Reference;
    EXPECT_EQ(Aes128::defaultImpl(), widest);
    EXPECT_EQ(Aes128(block("000102030405060708090a0b0c0d0e0f")).impl(),
              widest);
}

TEST(Aes128, DefaultImplFallsBackGracefully)
{
    // Requesting a lane the build or CPU lacks steps down the ladder
    // (vaes -> aesni -> reference) and never crashes; an available
    // lane sticks. Either way the cipher stays FIPS-197 exact.
    const AesImpl aesni_or_ref = Aes128::aesniAvailable()
                                     ? AesImpl::Aesni
                                     : AesImpl::Reference;
    Aes128 aes(block("000102030405060708090a0b0c0d0e0f"));
    aes.setImpl(AesImpl::Aesni);
    EXPECT_EQ(aes.impl(), aesni_or_ref);
    EXPECT_EQ(toHex(aes.encryptBlock(
                  block("00112233445566778899aabbccddeeff"))),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
    aes.setImpl(AesImpl::Vaes);
    EXPECT_EQ(aes.impl(), Aes128::vaesAvailable() ? AesImpl::Vaes
                                                  : aesni_or_ref);
    EXPECT_EQ(toHex(aes.encryptBlock(
                  block("00112233445566778899aabbccddeeff"))),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, ImplNamesStable)
{
    EXPECT_STREQ(aesImplName(AesImpl::Reference), "reference");
    EXPECT_STREQ(aesImplName(AesImpl::Aesni), "aesni");
    EXPECT_STREQ(aesImplName(AesImpl::Vaes), "vaes");
}
