/**
 * @file
 * ObfusMem wire format and MAC engine tests.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
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

TEST(WireFormat, DeliverFrameAppliesTheBusFault)
{
    WireMessage sent;
    sent.cipherHeader[5] = 0x3c;
    std::vector<WireMessage> got;
    auto receive = [&got](WireMessage &&m) { got.push_back(m); };

    deliverFrame(WireMessage(sent), BusFault{}, receive);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].cipherHeader, sent.cipherHeader);

    // Corrupted and duplicated: two copies, each with bit 42 flipped.
    got.clear();
    deliverFrame(WireMessage(sent), BusFault{true, true, 42}, receive);
    ASSERT_EQ(got.size(), 2u);
    crypto::Block128 flipped = sent.cipherHeader;
    flipped[42 / 8] ^= 1u << (42 % 8);
    EXPECT_EQ(got[0].cipherHeader, flipped);
    EXPECT_EQ(got[1].cipherHeader, flipped);
}

namespace {

std::vector<uint8_t>
handshakeValue(size_t n, uint8_t seed)
{
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<uint8_t>(seed + i * 7);
    return v;
}

/** Unpack one handshake payload and add it to an assembly. */
std::optional<std::vector<uint8_t>>
addPayload(HandshakeAssembly &a, const DataBlock &payload)
{
    std::optional<HandshakeChunk> c = unpackHandshakeChunk(payload);
    EXPECT_TRUE(c.has_value());
    return c ? a.add(*c) : std::nullopt;
}

} // namespace

TEST(Handshake, RoundTripsAtChunkBoundaries)
{
    for (size_t n : {1u, 54u, 55u, 256u, 8u * 54u}) {
        SCOPED_TRACE(n);
        const std::vector<uint8_t> value = handshakeValue(n, 3);
        const std::vector<DataBlock> payloads = packHandshake(7, value);
        EXPECT_EQ(payloads.size(), (n + 53) / 54);
        HandshakeAssembly a;
        for (size_t i = 0; i < payloads.size(); ++i) {
            std::optional<std::vector<uint8_t>> got =
                addPayload(a, payloads[i]);
            ASSERT_EQ(got.has_value(), i + 1 == payloads.size()) << i;
            if (got) {
                EXPECT_EQ(*got, value);
            }
        }
    }
}

TEST(Handshake, ChunksAssembleInAnyOrder)
{
    const std::vector<uint8_t> value = handshakeValue(256, 9);
    const std::vector<DataBlock> payloads = packHandshake(2, value);
    ASSERT_EQ(payloads.size(), 5u);
    HandshakeAssembly a;
    for (size_t i : {4u, 1u, 3u, 0u})
        EXPECT_FALSE(addPayload(a, payloads[i]).has_value()) << i;
    // A repeated chunk changes nothing.
    EXPECT_FALSE(addPayload(a, payloads[1]).has_value());
    std::optional<std::vector<uint8_t>> got = addPayload(a, payloads[2]);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, value);
}

TEST(Handshake, NewEpochRestartsTheCollection)
{
    const std::vector<uint8_t> old_value = handshakeValue(120, 1);
    const std::vector<uint8_t> new_value = handshakeValue(120, 2);
    const std::vector<DataBlock> old_chunks = packHandshake(1, old_value);
    const std::vector<DataBlock> new_chunks = packHandshake(2, new_value);
    ASSERT_EQ(old_chunks.size(), 3u);
    HandshakeAssembly a;
    EXPECT_FALSE(addPayload(a, old_chunks[0]).has_value());
    EXPECT_FALSE(addPayload(a, old_chunks[1]).has_value());
    // Had the epoch-1 chunks survived, this would complete a mix.
    EXPECT_FALSE(addPayload(a, new_chunks[2]).has_value());
    EXPECT_FALSE(addPayload(a, new_chunks[0]).has_value());
    std::optional<std::vector<uint8_t>> got =
        addPayload(a, new_chunks[1]);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, new_value);
}

TEST(Handshake, MoreThanEightChunksRejected)
{
    HandshakeAssembly a;
    HandshakeChunk c;
    c.epoch = 1;
    c.total = maxHandshakeChunks + 1;
    c.len = 1;
    for (unsigned i = 0; i < c.total; ++i) {
        c.chunk = static_cast<uint8_t>(i);
        EXPECT_FALSE(a.add(c).has_value()) << i;
    }
    EXPECT_DEATH(packHandshake(1, std::vector<uint8_t>(8 * 54 + 1)),
                 "chunks");
}

TEST(Handshake, RandomAndFlippedBlocksNeverYieldAPartialValue)
{
    // Random blocks, valid chunks and bit-flipped chunks, fed through
    // the wire decoder into one assembly. The chunks come from a value
    // that changes now and then, picked in random order. The reference
    // below holds the chunks of the epoch and count being collected;
    // the assembly must yield exactly when they cover every index, and
    // then their bytes in order.
    Random rng(24);
    HandshakeAssembly a;
    std::vector<DataBlock> chunks;
    uint32_t ref_epoch = 0;
    uint8_t ref_total = 0;
    std::map<uint8_t, HandshakeChunk> ref;
    unsigned yielded = 0, multi_chunk = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        DataBlock block;
        switch (rng.randUnder(3)) {
          case 0:
            rng.fillBytes(block.data(), block.size());
            if (rng.randUnder(2)) {
                block[0] = 0xd4; // chunk magic: reach the field checks
                block[1] = 0x48;
            }
            break;
          default: {
            if (chunks.empty() || rng.randUnder(8) == 0) {
                const uint32_t epoch =
                    static_cast<uint32_t>(rng.randUnder(3)) + 1;
                std::vector<uint8_t> value(rng.randUnder(8 * 54 + 1));
                rng.fillBytes(value.data(), value.size());
                chunks = packHandshake(epoch, value);
            }
            block = chunks[rng.randUnder(chunks.size())];
            for (uint64_t f = rng.randUnder(3); f > 0; --f) {
                const uint64_t bit = rng.randUnder(block.size() * 8);
                block[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
            }
            break;
          }
        }
        std::optional<HandshakeChunk> c = unpackHandshakeChunk(block);
        if (!c)
            continue;
        std::optional<std::vector<uint8_t>> got = a.add(*c);
        if (c->total > maxHandshakeChunks
            || c->len > handshakeChunkBytes) {
            EXPECT_FALSE(got.has_value());
            continue;
        }
        if (c->epoch != ref_epoch || c->total != ref_total) {
            ref_epoch = c->epoch;
            ref_total = c->total;
            ref.clear();
        }
        ref[c->chunk] = *c;
        ASSERT_EQ(got.has_value(), ref.size() == ref_total) << iter;
        if (!got)
            continue;
        ++yielded;
        multi_chunk += ref_total > 1;
        std::vector<uint8_t> want;
        for (const auto &[index, chunk] : ref)
            want.insert(want.end(), chunk.data.begin(),
                        chunk.data.begin() + chunk.len);
        EXPECT_EQ(*got, want) << iter;
        EXPECT_LE(got->size(), maxHandshakeChunks * handshakeChunkBytes);
    }
    EXPECT_GT(yielded, 0u);
    EXPECT_GT(multi_chunk, 0u);
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
