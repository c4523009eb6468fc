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

TEST(Aes128, Fips197BothImplementations)
{
    // The known-answer vectors must hold for the T-table fast path
    // AND the byte-oriented reference, independent of the default.
    for (AesImpl impl : {AesImpl::Ttable, AesImpl::Reference}) {
        Aes128 aes(block("2b7e151628aed2a6abf7158809cf4f3c"));
        aes.setImpl(impl);
        EXPECT_EQ(toHex(aes.encryptBlock(
                      block("3243f6a8885a308d313198a2e0370734"))),
                  "3925841d02dc09fbdc118597196a0b32");
        aes.setKey(block("000102030405060708090a0b0c0d0e0f"));
        EXPECT_EQ(toHex(aes.encryptBlock(
                      block("00112233445566778899aabbccddeeff"))),
                  "69c4e0d86a7b0430d8cdb78070b4c55a");
    }
}

TEST(Aes128, TtableMatchesReferenceRandomized)
{
    // Pin the fused-table fast path to the structural reference over
    // many random keys and plaintexts.
    Random rng(0xc0ffee);
    for (int k = 0; k < 20; ++k) {
        Aes128::Key key;
        rng.fillBytes(key.data(), key.size());
        Aes128 fast(key), ref(key);
        fast.setImpl(AesImpl::Ttable);
        ref.setImpl(AesImpl::Reference);
        for (int i = 0; i < 50; ++i) {
            Block128 pt;
            rng.fillBytes(pt.data(), pt.size());
            EXPECT_EQ(fast.encryptBlock(pt), ref.encryptBlock(pt));
        }
    }
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

TEST(Aes128, Fips197AesniKnownAnswers)
{
    if (!Aes128::aesniAvailable())
        GTEST_SKIP() << "AES-NI unavailable on this host/build";
    Aes128 aes(block("2b7e151628aed2a6abf7158809cf4f3c"));
    aes.setImpl(AesImpl::Aesni);
    EXPECT_EQ(toHex(aes.encryptBlock(
                  block("3243f6a8885a308d313198a2e0370734"))),
              "3925841d02dc09fbdc118597196a0b32");
    aes.setKey(block("000102030405060708090a0b0c0d0e0f"));
    EXPECT_EQ(toHex(aes.encryptBlock(
                  block("00112233445566778899aabbccddeeff"))),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, ThreeWayImplCrossCheckRandomized)
{
    // All implementations must agree block-for-block over random keys
    // and plaintexts: aesni and ttable are both pinned to the
    // byte-oriented structural reference.
    if (!Aes128::aesniAvailable())
        GTEST_SKIP() << "AES-NI unavailable on this host/build";
    Random rng(0xae51);
    for (int k = 0; k < 20; ++k) {
        Aes128::Key key;
        rng.fillBytes(key.data(), key.size());
        Aes128 hw(key), fast(key), ref(key);
        hw.setImpl(AesImpl::Aesni);
        fast.setImpl(AesImpl::Ttable);
        ref.setImpl(AesImpl::Reference);
        for (int i = 0; i < 50; ++i) {
            Block128 pt;
            rng.fillBytes(pt.data(), pt.size());
            Block128 want = ref.encryptBlock(pt);
            EXPECT_EQ(hw.encryptBlock(pt), want);
            EXPECT_EQ(fast.encryptBlock(pt), want);
        }
    }
}

TEST(Aes128, AesniEncryptBlocksAllTailShapes)
{
    // The AES-NI batch path takes 8-wide, 4-wide and single-block
    // legs; every size up to 20 exercises each combination, both
    // out-of-place and aliased in place.
    if (!Aes128::aesniAvailable())
        GTEST_SKIP() << "AES-NI unavailable on this host/build";
    Random rng(0xb10c);
    Aes128::Key key;
    rng.fillBytes(key.data(), key.size());
    Aes128 hw(key), ref(key);
    hw.setImpl(AesImpl::Aesni);
    ref.setImpl(AesImpl::Reference);

    for (size_t n = 1; n <= 20; ++n) {
        std::vector<Block128> in(n), out(n);
        for (auto &b : in)
            rng.fillBytes(b.data(), b.size());
        hw.encryptBlocks(in.data(), out.data(), n);
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(out[i], ref.encryptBlock(in[i])) << "n=" << n
                                                       << " i=" << i;

        std::vector<Block128> aliased = in;
        hw.encryptBlocks(aliased.data(), aliased.data(), n);
        EXPECT_EQ(aliased, out) << "n=" << n;
    }
}

TEST(Aes128, AesniGenPadsMatchesTtable)
{
    // The counter-mode pads the prefetch pipeline serves must be
    // independent of the AES implementation behind them.
    if (!Aes128::aesniAvailable())
        GTEST_SKIP() << "AES-NI unavailable on this host/build";
    AesCtr ctr(block("2b7e151628aed2a6abf7158809cf4f3c"), 0xabcd);
    Aes128 ref(block("2b7e151628aed2a6abf7158809cf4f3c"));
    ref.setImpl(AesImpl::Reference);
    for (uint64_t base : {0ull, 6ull, 48ull, 999999ull}) {
        std::vector<Block128> batch(48);
        ctr.genPads(base, batch.data(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
            Block128 iv{};
            storeLe64(iv.data(), 0xabcd);
            storeLe64(iv.data() + 8, base + i);
            EXPECT_EQ(batch[i], ref.encryptBlock(iv))
                << "base=" << base << " i=" << i;
        }
    }
}

TEST(Aes128, DefaultImplFallsBackGracefully)
{
    // setImpl(aesni) on a host without AES-NI must fall back to the
    // T-table path, never crash; with AES-NI the choice sticks.
    Aes128 aes(block("000102030405060708090a0b0c0d0e0f"));
    aes.setImpl(AesImpl::Aesni);
    EXPECT_EQ(toHex(aes.encryptBlock(
                  block("00112233445566778899aabbccddeeff"))),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, ImplNamesStable)
{
    EXPECT_STREQ(aesImplName(AesImpl::Ttable), "ttable");
    EXPECT_STREQ(aesImplName(AesImpl::Reference), "reference");
    EXPECT_STREQ(aesImplName(AesImpl::Aesni), "aesni");
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
    AesImpl::Ttable, AesImpl::Reference, AesImpl::Aesni, AesImpl::Vaes,
};

} // namespace

TEST(Aes128, Fips197EveryImplementation)
{
    // The FIPS-197 Appendix B vector must come out of every lane the
    // dispatch can pick, not just the scalar paths.
    for (AesImpl impl : kAllImpls) {
        if (!implAvailable(impl))
            continue;
        Aes128 aes(block("2b7e151628aed2a6abf7158809cf4f3c"));
        aes.setImpl(impl);
        EXPECT_EQ(toHex(aes.encryptBlock(
                      block("3243f6a8885a308d313198a2e0370734"))),
                  "3925841d02dc09fbdc118597196a0b32")
            << aesImplName(impl);
    }
}

TEST(Aes128, EncryptBlocksCrossImplRandomized)
{
    // Randomized equivalence of the batched entry point across every
    // available implementation, over sizes that cross the 4-wide and
    // 16-wide grouping boundaries, out-of-place and aliased in place.
    Random rng(0xba7c4);
    Aes128 ref(block("000102030405060708090a0b0c0d0e0f"));
    ref.setImpl(AesImpl::Reference);
    for (size_t n : {1u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 17u, 48u}) {
        std::vector<Block128> in(n), expect(n);
        for (auto &b : in)
            rng.fillBytes(b.data(), b.size());
        ref.encryptBlocks(in.data(), expect.data(), n);
        for (AesImpl impl : kAllImpls) {
            if (!implAvailable(impl))
                continue;
            Aes128 aes(block("000102030405060708090a0b0c0d0e0f"));
            aes.setImpl(impl);
            std::vector<Block128> out(n);
            aes.encryptBlocks(in.data(), out.data(), n);
            EXPECT_EQ(out, expect)
                << aesImplName(impl) << " n=" << n;
            std::vector<Block128> aliased = in;
            aes.encryptBlocks(aliased.data(), aliased.data(), n);
            EXPECT_EQ(aliased, expect)
                << aesImplName(impl) << " aliased n=" << n;
        }
    }
}

TEST(AesCtr, GenPadsCrossImplEquivalence)
{
    // genPads builds IVs in the output buffer and encrypts them in
    // place (aliased), so every lane must agree on the aliasing
    // contract as well as the ciphertexts. Includes the request-group
    // stride (6) and the bench's per-flush arena size (192).
    AesCtr ref(block("2b7e151628aed2a6abf7158809cf4f3c"), 0xabcd);
    ref.setImpl(AesImpl::Reference);
    for (AesImpl impl : kAllImpls) {
        if (!implAvailable(impl))
            continue;
        AesCtr ctr(block("2b7e151628aed2a6abf7158809cf4f3c"), 0xabcd);
        ctr.setImpl(impl);
        for (size_t n : {1u, 5u, 6u, 17u, 192u}) {
            std::vector<Block128> expect(n), got(n);
            ref.genPads(7777, expect.data(), n);
            ctr.genPads(7777, got.data(), n);
            EXPECT_EQ(got, expect)
                << aesImplName(impl) << " n=" << n;
        }
    }
}

TEST(Aes128, WideImplNamesStable)
{
    EXPECT_STREQ(aesImplName(AesImpl::Vaes), "vaes");
}
