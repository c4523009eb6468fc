/**
 * @file
 * ObfusMem wire format and MAC engine tests.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "obfusmem/mac_engine.hh"
#include "obfusmem/wire_format.hh"
#include "util/random.hh"

using namespace obfusmem;
using namespace obfusmem::crypto;

namespace {

Aes128::Key
testKey()
{
    Aes128::Key key{};
    for (size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<uint8_t>(i * 11 + 3);
    return key;
}

} // namespace

TEST(WireHeader, PackUnpackRoundTrip)
{
    WireHeader hdr;
    hdr.cmd = MemCmd::Write;
    hdr.addr = 0x123456789abcull;
    hdr.tag = 0xbeef;
    hdr.dummy = true;
    auto parsed = WireHeader::unpack(hdr.pack());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->cmd, MemCmd::Write);
    EXPECT_EQ(parsed->addr, hdr.addr);
    EXPECT_EQ(parsed->tag, hdr.tag);
    EXPECT_TRUE(parsed->dummy);
}

TEST(WireHeader, BadMagicRejected)
{
    WireHeader hdr;
    hdr.addr = 0x1000;
    Block128 packed = hdr.pack();
    packed[11] ^= 0x01; // corrupt magic
    EXPECT_FALSE(WireHeader::unpack(packed).has_value());
}

TEST(WireHeader, RandomBlocksAlmostNeverParse)
{
    Random rng(1);
    int parsed = 0;
    for (int i = 0; i < 1000; ++i) {
        Block128 junk;
        rng.fillBytes(junk.data(), junk.size());
        parsed += WireHeader::unpack(junk).has_value();
    }
    // 16-bit magic + validity bits: parsing junk is ~1 in 2^18.
    EXPECT_LE(parsed, 1);
}

TEST(WireFormat, HeaderEncryptionRoundTrip)
{
    AesCtr cipher(testKey(), 0);
    WireHeader hdr;
    hdr.cmd = MemCmd::Read;
    hdr.addr = 0xdeadbee0;
    hdr.tag = 17;
    Block128 wire = encryptHeader(cipher, 42, hdr);
    auto back = decryptHeader(cipher, 42, wire);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->addr, hdr.addr);
    EXPECT_EQ(back->tag, hdr.tag);
}

TEST(WireFormat, WrongCounterFailsToDecrypt)
{
    AesCtr cipher(testKey(), 0);
    WireHeader hdr;
    hdr.addr = 0x1000;
    Block128 wire = encryptHeader(cipher, 42, hdr);
    EXPECT_FALSE(decryptHeader(cipher, 43, wire).has_value());
}

TEST(WireFormat, SameHeaderEncryptsDifferentlyEachCounter)
{
    // The heart of temporal-pattern obfuscation: identical requests
    // look different on the wire every time.
    AesCtr cipher(testKey(), 0);
    WireHeader hdr;
    hdr.addr = 0x4000;
    std::set<std::string> wires;
    for (uint64_t ctr = 0; ctr < 100; ++ctr)
        wires.insert(toHex(encryptHeader(cipher, ctr * 6, hdr)));
    EXPECT_EQ(wires.size(), 100u);
}

TEST(WireFormat, PayloadRoundTrip)
{
    AesCtr cipher(testKey(), 5);
    Random rng(2);
    DataBlock data;
    rng.fillBytes(data.data(), data.size());
    DataBlock wire = cryptPayload(cipher, 1000, data);
    EXPECT_NE(wire, data);
    EXPECT_EQ(cryptPayload(cipher, 1000, wire), data);
}

TEST(WireFormat, WireBytesArithmetic)
{
    WireMessage msg;
    EXPECT_EQ(msg.wireBytes(0, 8), 0u);
    EXPECT_EQ(msg.wireBytes(16, 8), 16u);
    msg.hasData = true;
    EXPECT_EQ(msg.wireBytes(0, 8), 64u);
    msg.hasMac = true;
    EXPECT_EQ(msg.wireBytes(0, 8), 72u);
    EXPECT_EQ(msg.wireBytes(16, 16), 96u);
}

TEST(WireFormat, CounterDiscipline)
{
    // Six pads per request group, five per reply (paper Fig. 3).
    EXPECT_EQ(countersPerRequestGroup, 6u);
    EXPECT_EQ(countersPerReply, 5u);
}

TEST(MacEngine, ComputeVerifyRoundTrip)
{
    MacEngine mac(MacEngine::Params{});
    WireHeader hdr;
    hdr.cmd = MemCmd::Write;
    hdr.addr = 0x8000;
    auto tag = mac.compute(hdr, 77);
    EXPECT_TRUE(mac.verify(hdr, 77, tag));
}

TEST(MacEngine, DetectsTypeTamper)
{
    MacEngine mac(MacEngine::Params{});
    WireHeader hdr;
    hdr.cmd = MemCmd::Write;
    hdr.addr = 0x8000;
    auto tag = mac.compute(hdr, 77);
    WireHeader tampered = hdr;
    tampered.cmd = MemCmd::Read;
    EXPECT_FALSE(mac.verify(tampered, 77, tag));
}

TEST(MacEngine, DetectsAddressTamper)
{
    MacEngine mac(MacEngine::Params{});
    WireHeader hdr;
    hdr.addr = 0x8000;
    auto tag = mac.compute(hdr, 77);
    WireHeader tampered = hdr;
    tampered.addr = 0x8040;
    EXPECT_FALSE(mac.verify(tampered, 77, tag));
}

TEST(MacEngine, DetectsCounterSkewFromDropOrReplay)
{
    // A dropped or replayed message shifts the receiver's counter:
    // the recomputed MAC uses a different (fresh) counter value.
    MacEngine mac(MacEngine::Params{});
    WireHeader hdr;
    hdr.addr = 0x8000;
    auto tag = mac.compute(hdr, 77);
    EXPECT_FALSE(mac.verify(hdr, 78, tag)); // drop
    EXPECT_FALSE(mac.verify(hdr, 71, tag)); // replay
}

namespace {

/** Md5::digest of the r|a|c preimage, packed here byte by byte. */
Md5Digest
oracleMac(const WireHeader &hdr, uint64_t counter)
{
    uint8_t buf[17];
    buf[0] = hdr.cmd == MemCmd::Write ? 1 : 0;
    for (int i = 0; i < 8; ++i) {
        buf[1 + i] = static_cast<uint8_t>(hdr.addr >> (8 * i));
        buf[9 + i] = static_cast<uint8_t>(counter >> (8 * i));
    }
    return Md5::digest(buf, sizeof(buf));
}

struct MacCase
{
    WireHeader hdr;
    uint64_t counter;
};

/**
 * Edge headers and counters (read and write; 0, all-ones, and one
 * marked byte at each position, so every byte of the 17-byte preimage
 * takes a turn on each side of a packed-word boundary), then seeded
 * random ones.
 */
std::vector<MacCase>
macCases()
{
    std::vector<uint64_t> values = {0, ~0ull, 1, 0x0102030405060708ull};
    for (int b = 0; b < 8; ++b) {
        values.push_back(0xa5ull << (8 * b));
        values.push_back(~(0xffull << (8 * b)));
    }
    std::vector<MacCase> cases;
    for (MemCmd cmd : {MemCmd::Read, MemCmd::Write}) {
        for (uint64_t addr : values) {
            for (uint64_t ctr : values) {
                MacCase mc{};
                mc.hdr.cmd = cmd;
                mc.hdr.addr = addr;
                mc.counter = ctr;
                cases.push_back(mc);
            }
        }
    }
    Random rng(1414);
    for (int i = 0; i < 256; ++i) {
        MacCase mc{};
        mc.hdr.cmd = rng.chance(0.5) ? MemCmd::Write : MemCmd::Read;
        mc.hdr.addr = rng.next();
        mc.counter = rng.next();
        cases.push_back(mc);
    }
    return cases;
}

} // namespace

TEST(MacEngine, EveryPathMatchesTheMd5Oracle)
{
    // compute and verify both reach MD5 through the one-block r|a|c
    // kernel; each must agree with Md5::digest of the packed preimage
    // on every edge value and random case.
    MacEngine mac(MacEngine::Params{});
    const std::vector<MacCase> cases = macCases();
    for (size_t i = 0; i < cases.size(); ++i) {
        const MacCase &mc = cases[i];
        const Md5Digest want = oracleMac(mc.hdr, mc.counter);
        EXPECT_EQ(mac.compute(mc.hdr, mc.counter), want) << i;
        EXPECT_TRUE(mac.verify(mc.hdr, mc.counter, want)) << i;
    }
}

TEST(MacEngine, AnyFlippedPreimageBitFailsVerify)
{
    // The request type, each address bit and each counter bit all
    // reach the digest; a flipped tag bit fails as well.
    MacEngine mac(MacEngine::Params{});
    const std::vector<MacCase> cases = macCases();
    for (size_t i = 0; i < cases.size(); i += 37) {
        const MacCase &mc = cases[i];
        const Md5Digest tag = mac.compute(mc.hdr, mc.counter);
        WireHeader flipped = mc.hdr;
        flipped.cmd =
            mc.hdr.cmd == MemCmd::Write ? MemCmd::Read : MemCmd::Write;
        EXPECT_FALSE(mac.verify(flipped, mc.counter, tag)) << i;
        for (int bit = 0; bit < 64; ++bit) {
            flipped = mc.hdr;
            flipped.addr ^= 1ull << bit;
            EXPECT_FALSE(mac.verify(flipped, mc.counter, tag))
                << i << " addr bit " << bit;
            EXPECT_FALSE(mac.verify(mc.hdr, mc.counter ^ (1ull << bit),
                                    tag))
                << i << " counter bit " << bit;
        }
        for (int bit = 0; bit < 128; ++bit) {
            Md5Digest bad = tag;
            bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
            EXPECT_FALSE(mac.verify(mc.hdr, mc.counter, bad))
                << i << " tag bit " << bit;
        }
    }
}

TEST(MacEngine, EncryptAndMacIsFasterThanEncryptThenMac)
{
    // Observation 4: overlapping MAC generation with encryption
    // keeps it off the critical path.
    MacEngine::Params and_params;
    and_params.mode = MacMode::EncryptAndMac;
    MacEngine::Params then_params;
    then_params.mode = MacMode::EncryptThenMac;
    MacEngine and_mac(and_params), then_mac(then_params);
    EXPECT_LT(and_mac.senderLatency(), then_mac.senderLatency());
    EXPECT_LT(and_mac.receiverLatency(), then_mac.receiverLatency());
    // The serial mode pays the full 64-stage MD5 pipeline.
    EXPECT_EQ(then_mac.senderLatency(), 64 * 4 * tickPerNs);
}
