/**
 * @file
 * Memory-encryption engine tests: functional encryption, counter
 * cache traffic, Merkle integration, and tamper detection.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "secure/encryption_engine.hh"

using namespace obfusmem;

namespace {

constexpr uint64_t GB = 1ull << 30;

/** Inner sink recording all packets with a functional store. */
class RecordingMemory : public MemSink
{
  public:
    RecordingMemory(EventQueue &eq, Tick latency = 100 * tickPerNs)
        : eq(eq), latency(latency)
    {}

    void
    access(MemPacket pkt, PacketCallback cb) override
    {
        log.push_back({pkt.cmd, pkt.addr});
        if (pkt.isWrite())
            contents[pkt.addr] = pkt.data;
        eq.scheduleAfter(latency,
            [this, pkt = std::move(pkt),
             cb = std::move(cb)]() mutable {
                if (pkt.isRead()) {
                    auto it = contents.find(pkt.addr);
                    if (it != contents.end())
                        pkt.data = it->second;
                }
                cb(std::move(pkt));
            });
    }

    uint64_t
    countIn(uint64_t lo, uint64_t hi, MemCmd cmd) const
    {
        uint64_t n = 0;
        for (const auto &[c, a] : log) {
            if (c == cmd && a >= lo && a < hi)
                ++n;
        }
        return n;
    }

    EventQueue &eq;
    Tick latency;
    std::vector<std::pair<MemCmd, uint64_t>> log;
    std::map<uint64_t, DataBlock> contents;
};

class EngineFixture : public ::testing::Test
{
  protected:
    static constexpr uint64_t dataBytes = 1 * GB;
    static constexpr uint64_t ctrBase = 2 * GB;
    static constexpr uint64_t bmtBase = 3 * GB;

    EngineFixture() : stats("test", nullptr), mem(eq) {}

    void
    makeEngine(bool integrity)
    {
        EncryptionParams params;
        params.integrity = integrity;
        crypto::Aes128::Key key{};
        key[0] = 0x42;
        engine = std::make_unique<MemoryEncryptionEngine>(
            "enc", eq, &stats, params, mem, dataBytes, ctrBase,
            bmtBase, key);
    }

    void
    write(uint64_t addr, const DataBlock &data)
    {
        MemPacket pkt;
        pkt.cmd = MemCmd::Write;
        pkt.addr = addr;
        pkt.data = data;
        engine->access(std::move(pkt), [](MemPacket &&) {});
        eq.run();
    }

    DataBlock
    read(uint64_t addr)
    {
        DataBlock out{};
        MemPacket pkt;
        pkt.cmd = MemCmd::Read;
        pkt.addr = addr;
        engine->access(std::move(pkt),
                       [&out](MemPacket &&resp) { out = resp.data; });
        eq.run();
        return out;
    }

    EventQueue eq;
    statistics::Group stats;
    RecordingMemory mem;
    std::unique_ptr<MemoryEncryptionEngine> engine;
};

} // namespace

TEST_F(EngineFixture, WriteReadRoundTrip)
{
    makeEngine(false);
    DataBlock data;
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 3);
    write(0x1000, data);
    EXPECT_EQ(read(0x1000), data);
}

TEST_F(EngineFixture, CiphertextAtRestDiffersFromPlaintext)
{
    makeEngine(false);
    DataBlock data{};
    data[0] = 0xaa;
    write(0x1000, data);
    ASSERT_TRUE(mem.contents.count(0x1000));
    EXPECT_NE(mem.contents[0x1000], data);
}

TEST_F(EngineFixture, SameDataDifferentCiphertextAfterRewrite)
{
    // Counter-mode freshness: rewriting identical data yields a
    // different ciphertext (minor counter bumped).
    makeEngine(false);
    DataBlock data{};
    data[0] = 0x55;
    write(0x1000, data);
    DataBlock first = mem.contents[0x1000];
    write(0x1000, data);
    DataBlock second = mem.contents[0x1000];
    EXPECT_NE(first, second);
    EXPECT_EQ(read(0x1000), data);
}

TEST_F(EngineFixture, DifferentBlocksDifferentPads)
{
    makeEngine(false);
    DataBlock zeros{};
    write(0x0, zeros);
    write(0x40, zeros);
    EXPECT_NE(mem.contents[0x0], mem.contents[0x40]);
}

TEST_F(EngineFixture, CounterFetchTrafficOnMiss)
{
    makeEngine(false);
    read(0x100000);
    // One data read + one counter-block read.
    EXPECT_EQ(mem.countIn(0, dataBytes, MemCmd::Read), 1u);
    EXPECT_EQ(mem.countIn(ctrBase, bmtBase, MemCmd::Read), 1u);
}

TEST_F(EngineFixture, CounterCacheHitAvoidsTraffic)
{
    makeEngine(false);
    read(0x100000);
    uint64_t ctr_reads = mem.countIn(ctrBase, bmtBase, MemCmd::Read);
    read(0x100040); // same 4 KB page -> same counter block
    EXPECT_EQ(mem.countIn(ctrBase, bmtBase, MemCmd::Read), ctr_reads);
}

TEST_F(EngineFixture, ConcurrentMissesShareCounterFetch)
{
    makeEngine(false);
    int done = 0;
    for (int i = 0; i < 4; ++i) {
        MemPacket pkt;
        pkt.cmd = MemCmd::Read;
        pkt.addr = 0x200000 + i * 64;
        engine->access(std::move(pkt),
                       [&done](MemPacket &&) { ++done; });
    }
    eq.run();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(mem.countIn(ctrBase, bmtBase, MemCmd::Read), 1u);
}

TEST_F(EngineFixture, BmtTrafficOnlyWithIntegrity)
{
    makeEngine(false);
    read(0x300000);
    EXPECT_EQ(mem.countIn(bmtBase, 4 * GB, MemCmd::Read), 0u);

    makeEngine(true);
    read(0x310000);
    EXPECT_GE(mem.countIn(bmtBase, 4 * GB, MemCmd::Read), 1u);
}

TEST_F(EngineFixture, TamperedCounterDetected)
{
    makeEngine(true);
    DataBlock data{};
    write(0x400000, data);
    EXPECT_EQ(engine->stats().scalarValue("integrityViolations"), 0u);

    // Evict the (dirty) counter block so it is written back to
    // memory and the Merkle tree covers it: read far-away pages
    // until the 4096-entry counter cache wraps.
    for (uint64_t p = 0; p < 5000; ++p)
        read(0x10000000 + p * 4096);
    EXPECT_EQ(engine->stats().scalarValue("integrityViolations"), 0u);

    // Now the attacker flips bits in the counter *storage*; the
    // next fetch must fail verification against the on-chip root.
    engine->tamperCounter(0x400000);
    read(0x400000);
    EXPECT_GE(engine->stats().scalarValue("integrityViolations"), 1u);
}

TEST_F(EngineFixture, RacingReadSeesInflightWrite)
{
    makeEngine(false);
    DataBlock data{};
    data[7] = 0x77;
    MemPacket wr;
    wr.cmd = MemCmd::Write;
    wr.addr = 0x500000;
    wr.data = data;
    engine->access(std::move(wr), [](MemPacket &&) {});
    // Read before the write drains.
    DataBlock out{};
    MemPacket rd;
    rd.cmd = MemCmd::Read;
    rd.addr = 0x500000;
    engine->access(std::move(rd),
                   [&out](MemPacket &&resp) { out = resp.data; });
    eq.run();
    EXPECT_EQ(out[7], 0x77);
}

TEST_F(EngineFixture, DebugDecryptMatchesStoredCiphertext)
{
    makeEngine(false);
    DataBlock data{};
    data[3] = 0x33;
    write(0x600000, data);
    DataBlock cipher = mem.contents[0x600000];
    EXPECT_EQ(engine->debugDecrypt(0x600000, cipher), data);
    EXPECT_EQ(engine->debugEncrypt(0x600000, data), cipher);
}

TEST_F(EngineFixture, DirtyCounterEvictionsWriteBack)
{
    makeEngine(false);
    // Dirty many counter blocks (one write per page), then overflow
    // the 4096-entry counter cache.
    DataBlock data{};
    for (uint64_t p = 0; p < 5000; ++p)
        write(0x1000000 + p * 4096, data);
    EXPECT_GE(mem.countIn(ctrBase, bmtBase, MemCmd::Write), 1u);
}
