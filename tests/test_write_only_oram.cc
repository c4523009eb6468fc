/**
 * @file
 * Unit tests for the two write-only ORAM structures: Flat ORAM
 * (randomized free-slot placement) and the deterministic stash-free
 * write-only ORAM (holding area + round-robin refresh), plus their
 * phased timing controllers.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>

#include "oram/flat_oram.hh"
#include "oram/oram_controller.hh"
#include "oram/write_only_oram.hh"
#include "util/random.hh"

using namespace obfusmem;

namespace {

DataBlock
patternBlock(uint8_t tag)
{
    DataBlock d{};
    for (size_t i = 0; i < d.size(); ++i)
        d[i] = static_cast<uint8_t>(tag ^ (i * 3));
    return d;
}

/** MemSink that completes every request immediately (zero latency). */
class ImmediateSink : public MemSink
{
  public:
    void access(MemPacket pkt, PacketCallback cb) override
    {
        ++count;
        if (pkt.isRead())
            ++reads;
        else
            ++writes;
        cb(std::move(pkt));
    }

    uint64_t count = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
};

} // namespace

// =====================================================================
// FlatOram
// =====================================================================

TEST(FlatOram, ReadAfterWrite)
{
    FlatOram::Params params;
    params.capacityBlocks = 64;
    FlatOram oram(params);
    DataBlock d = patternBlock(0x11);
    oram.write(42, d);
    EXPECT_EQ(oram.read(42), d);
}

TEST(FlatOram, NeverWrittenReadsDeterministicJunk)
{
    FlatOram::Params params;
    params.capacityBlocks = 64;
    FlatOram a(params), b(params);
    EXPECT_EQ(a.read(7), b.read(7));
    EXPECT_EQ(a.read(7), junkDataBlock(7));
    // A read miss still costs one physical read.
    EXPECT_EQ(a.lastReadSlots().size(), 1u);
    EXPECT_TRUE(a.lastWriteSlots().empty());
}

TEST(FlatOram, MatchesReferenceMapAndInvariant)
{
    FlatOram::Params params;
    params.capacityBlocks = 256;
    FlatOram oram(params);
    Random rng(21);
    std::map<uint64_t, DataBlock> reference;

    for (int op = 0; op < 2000; ++op) {
        uint64_t block = rng.randUnder(params.capacityBlocks);
        if (rng.chance(0.5)) {
            DataBlock d;
            rng.fillBytes(d.data(), d.size());
            oram.write(block, d);
            reference[block] = d;
        } else if (reference.count(block)) {
            EXPECT_EQ(oram.read(block), reference[block]);
        }
        if (op % 250 == 249) {
            ASSERT_TRUE(oram.checkInvariant()) << "op " << op;
        }
    }
    EXPECT_TRUE(oram.checkInvariant());
}

TEST(FlatOram, WritesRelocateToFreshRandomSlots)
{
    FlatOram::Params params;
    params.capacityBlocks = 1 << 10;
    FlatOram oram(params);
    DataBlock d{};
    oram.write(5, d);
    int moves = 0;
    auto prev = oram.slotOf(5);
    for (int i = 0; i < 50; ++i) {
        oram.write(5, d);
        ASSERT_EQ(oram.lastWriteSlots().size(), 1u);
        auto cur = oram.slotOf(5);
        EXPECT_EQ(oram.lastWriteSlots()[0], *cur);
        if (cur != prev)
            ++moves;
        prev = cur;
    }
    // 2048 physical slots, nearly empty: re-landing on the same slot
    // is a ~1/2048 event per write.
    EXPECT_GT(moves, 45);
}

TEST(FlatOram, WriteTraceIndependentOfAddresses)
{
    // The write-only obliviousness argument, concretely: with the
    // same RNG seed and the same write/no-rewrite structure, two
    // instances serving *disjoint* address sets emit the identical
    // physical slot sequence.
    FlatOram::Params params;
    params.capacityBlocks = 512;
    FlatOram a(params), b(params);
    DataBlock d{};
    for (uint64_t i = 0; i < 400; ++i) {
        a.write(i, d);        // blocks 0..399
        b.write(3000 + i, d); // blocks 3000..3399
        ASSERT_EQ(a.lastWriteSlots(), b.lastWriteSlots())
            << "write " << i;
    }
}

TEST(FlatOram, ProbeCountStaysNearDesignExpectation)
{
    FlatOram::Params params;
    params.capacityBlocks = 1 << 12;
    params.utilization = 0.5;
    FlatOram oram(params);
    DataBlock d{};
    // Fill to the full logical capacity: occupancy reaches 50%.
    for (uint64_t b = 0; b < params.capacityBlocks; ++b)
        oram.write(b, d);
    EXPECT_DOUBLE_EQ(oram.occupancy(), 0.5);
    // Expected probes per write is 1/(1-occupancy) <= 2; the observed
    // worst case stays far below the 128-probe fail-stop bound.
    EXPECT_LT(oram.maxProbeCount(), 40u);
    EXPECT_EQ(oram.physicalWrites(), params.capacityBlocks);
}

TEST(FlatOram, SerializeRoundTripsAndReplaysIdentically)
{
    FlatOram::Params params;
    params.capacityBlocks = 128;
    FlatOram a(params);
    Random rng(31);
    for (int i = 0; i < 300; ++i) {
        DataBlock d;
        rng.fillBytes(d.data(), d.size());
        a.write(rng.randUnder(params.capacityBlocks), d);
    }

    std::stringstream snap;
    a.serialize(snap);
    FlatOram b(params);
    ASSERT_TRUE(b.deserialize(snap));
    EXPECT_TRUE(b.checkInvariant());

    // Same state and same RNG stream: identical slot choices forward.
    DataBlock d{};
    for (int i = 0; i < 100; ++i) {
        uint64_t block = static_cast<uint64_t>(i * 13) % 128;
        a.write(block, d);
        b.write(block, d);
        ASSERT_EQ(a.lastWriteSlots(), b.lastWriteSlots());
        EXPECT_EQ(a.slotOf(block), b.slotOf(block));
    }

    std::stringstream full;
    a.serialize(full);
    std::string bytes = full.str();
    std::stringstream cut(bytes.substr(0, bytes.size() / 3));
    FlatOram c(params);
    EXPECT_FALSE(c.deserialize(cut));
}

TEST(FlatOramDeathTest, OverdrivingPastPhysicalCapacityFailStops)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    FlatOram::Params params;
    params.capacityBlocks = 4; // 8 physical slots
    FlatOram oram(params);
    DataBlock d{};
    EXPECT_DEATH(
        {
            for (uint64_t b = 0; b < 16; ++b)
                oram.write(b, d);
        },
        "physical capacity");
}

// =====================================================================
// WriteOnlyOram
// =====================================================================

TEST(WriteOnlyOram, ReadAfterWrite)
{
    WriteOnlyOram::Params params;
    params.capacityBlocks = 64;
    WriteOnlyOram oram(params);
    DataBlock d = patternBlock(0x22);
    oram.write(17, d);
    EXPECT_EQ(oram.read(17), d);
    EXPECT_TRUE(oram.inHolding(17));
}

TEST(WriteOnlyOram, NeverWrittenReadsDeterministicJunk)
{
    WriteOnlyOram::Params params;
    params.capacityBlocks = 64;
    WriteOnlyOram oram(params);
    EXPECT_EQ(oram.read(9), junkDataBlock(9));
    EXPECT_EQ(oram.lastReadSlots().size(), 1u);
}

TEST(WriteOnlyOram, PhysicalWriteTraceIsDeterministicRoundRobin)
{
    // The core security property, checked exactly (not
    // statistically): write number c always touches holding slot
    // N + (c mod N) then main slot (c mod N), whatever address the
    // program wrote.
    WriteOnlyOram::Params params;
    params.capacityBlocks = 32;
    WriteOnlyOram a(params), b(params);
    Random rng(41);
    DataBlock d{};
    for (uint64_t c = 0; c < 200; ++c) {
        const uint64_t n = params.capacityBlocks;
        std::vector<uint64_t> expected = {n + (c % n), c % n};
        a.write(rng.randUnder(n), d);
        b.write((c * 7) % n, d);
        ASSERT_EQ(a.lastWriteSlots(), expected) << "write " << c;
        ASSERT_EQ(b.lastWriteSlots(), expected) << "write " << c;
    }
}

TEST(WriteOnlyOram, MatchesReferenceMapAcrossHoldingWraparound)
{
    WriteOnlyOram::Params params;
    params.capacityBlocks = 32;
    WriteOnlyOram oram(params);
    Random rng(43);
    std::map<uint64_t, DataBlock> reference;

    // 1000 writes over a 32-slot holding area: the holding slots are
    // reused ~30 times, exercising the refresh-before-reuse safety
    // argument from every phase alignment.
    for (int op = 0; op < 2000; ++op) {
        uint64_t block = rng.randUnder(params.capacityBlocks);
        if (rng.chance(0.5)) {
            DataBlock d;
            rng.fillBytes(d.data(), d.size());
            oram.write(block, d);
            reference[block] = d;
        } else if (reference.count(block)) {
            ASSERT_EQ(oram.read(block), reference[block])
                << "op " << op;
        }
        if (op % 250 == 249) {
            ASSERT_TRUE(oram.checkInvariant()) << "op " << op;
        }
    }
    EXPECT_TRUE(oram.checkInvariant());
}

TEST(WriteOnlyOram, RefreshPropagatesHoldingCopiesToMain)
{
    WriteOnlyOram::Params params;
    params.capacityBlocks = 16;
    WriteOnlyOram oram(params);
    DataBlock d = patternBlock(0x33);
    oram.write(3, d);
    EXPECT_TRUE(oram.inHolding(3));
    // A full round of other writes round-robins the refresh over
    // every main block, including 3.
    DataBlock junk{};
    for (int i = 0; i < 16; ++i)
        oram.write(10, junk);
    EXPECT_FALSE(oram.inHolding(3));
    EXPECT_EQ(oram.read(3), d);
    // Freshest copy now served from main area (slot id < N).
    EXPECT_EQ(oram.lastReadSlots().front(), 3u);
}

TEST(WriteOnlyOram, CostsAreExactlyTwoXWriteAndStorage)
{
    WriteOnlyOram::Params params;
    params.capacityBlocks = 64;
    WriteOnlyOram oram(params);
    DataBlock d{};
    for (int i = 0; i < 150; ++i)
        oram.write(i % 64, d);
    EXPECT_EQ(oram.logicalWrites(), 150u);
    EXPECT_EQ(oram.physicalWrites(), 300u);
    EXPECT_EQ(oram.physicalBlocks(), 2 * oram.capacityBlocks());
}

TEST(WriteOnlyOram, SerializeRoundTripsAndReplaysIdentically)
{
    WriteOnlyOram::Params params;
    params.capacityBlocks = 48;
    WriteOnlyOram a(params);
    Random rng(47);
    for (int i = 0; i < 200; ++i) {
        DataBlock d;
        rng.fillBytes(d.data(), d.size());
        a.write(rng.randUnder(params.capacityBlocks), d);
    }

    std::stringstream snap;
    a.serialize(snap);
    WriteOnlyOram b(params);
    ASSERT_TRUE(b.deserialize(snap));
    EXPECT_TRUE(b.checkInvariant());
    EXPECT_EQ(a.logicalWrites(), b.logicalWrites());

    DataBlock d = patternBlock(0x44);
    for (int i = 0; i < 100; ++i) {
        uint64_t block = static_cast<uint64_t>(i * 5) % 48;
        a.write(block, d);
        b.write(block, d);
        ASSERT_EQ(a.lastWriteSlots(), b.lastWriteSlots());
    }
    for (uint64_t block = 0; block < 48; ++block)
        EXPECT_EQ(a.read(block), b.read(block)) << "block " << block;

    std::stringstream full;
    a.serialize(full);
    std::string bytes = full.str();
    std::stringstream cut(bytes.substr(0, bytes.size() / 2));
    WriteOnlyOram c(params);
    EXPECT_FALSE(c.deserialize(cut));

    // A holding entry for a block outside [0, N) is rejected, not used
    // to index the written-block map. Layout after magic, N and the
    // write counter: per main block a flag (plus data if set), then
    // the holding entries (count, {id, slot, data}).
    ASSERT_GT(a.holdingCount(), 0u);
    auto word = [&bytes](size_t at) {
        uint64_t v = 0;
        std::memcpy(&v, bytes.data() + at, sizeof(v));
        return v;
    };
    size_t held_at = 3 * 8;
    for (uint64_t block = 0; block < params.capacityBlocks; ++block)
        held_at += 8 + (word(held_at) ? 64 : 0);
    ASSERT_EQ(word(held_at), a.holdingCount());
    std::string patched = bytes;
    const uint64_t out_of_range = params.capacityBlocks;
    std::memcpy(patched.data() + held_at + 8, &out_of_range,
                sizeof(out_of_range));
    std::stringstream bad_id(patched);
    WriteOnlyOram e(params);
    EXPECT_FALSE(e.deserialize(bad_id));
}

// =====================================================================
// Phased controllers over a zero-latency sink
// =====================================================================

TEST(FlatOramController, TransferCountsMatchTheModel)
{
    EventQueue eq;
    statistics::Group stats("test", nullptr);
    ImmediateSink sink;
    FlatOramController::Params params;
    params.oram.capacityBlocks = 256;
    FlatOramController ctl("flat", eq, &stats, params, sink);

    DataBlock d = patternBlock(0x55);
    MemPacket wr;
    wr.cmd = MemCmd::Write;
    wr.addr = 5 * blockBytes;
    wr.data = d;
    ctl.access(std::move(wr), [](MemPacket &&) {});
    eq.run();
    // A write is exactly one substrate write, no reads.
    EXPECT_EQ(sink.writes, 1u);
    EXPECT_EQ(sink.reads, 0u);

    DataBlock out{};
    MemPacket rd;
    rd.cmd = MemCmd::Read;
    rd.addr = 5 * blockBytes;
    ctl.access(std::move(rd),
               [&out](MemPacket &&resp) { out = resp.data; });
    eq.run();
    EXPECT_EQ(out, d);
    // A read is exactly one substrate read.
    EXPECT_EQ(sink.reads, 1u);
    EXPECT_EQ(ctl.blocksTransferred(), 2u);
}

TEST(WriteOnlyOramController, TransferCountsMatchTheModel)
{
    EventQueue eq;
    statistics::Group stats("test", nullptr);
    ImmediateSink sink;
    WriteOnlyOramController::Params params;
    params.oram.capacityBlocks = 256;
    WriteOnlyOramController ctl("wo", eq, &stats, params, sink);

    DataBlock d = patternBlock(0x66);
    MemPacket wr;
    wr.cmd = MemCmd::Write;
    wr.addr = 9 * blockBytes;
    wr.data = d;
    ctl.access(std::move(wr), [](MemPacket &&) {});
    eq.run();
    // A write is exactly two substrate writes (holding + refresh).
    EXPECT_EQ(sink.writes, 2u);
    EXPECT_EQ(sink.reads, 0u);

    DataBlock out{};
    MemPacket rd;
    rd.cmd = MemCmd::Read;
    rd.addr = 9 * blockBytes;
    ctl.access(std::move(rd),
               [&out](MemPacket &&resp) { out = resp.data; });
    eq.run();
    EXPECT_EQ(out, d);
    EXPECT_EQ(sink.reads, 1u);
    EXPECT_EQ(ctl.blocksTransferred(), 3u);
}

TEST(WriteOnlyOramController, AliasesAddressesIntoTheBlockSpace)
{
    EventQueue eq;
    statistics::Group stats("test", nullptr);
    ImmediateSink sink;
    WriteOnlyOramController::Params params;
    params.oram.capacityBlocks = 64;
    WriteOnlyOramController ctl("wo", eq, &stats, params, sink);

    DataBlock d = patternBlock(0x77);
    MemPacket wr;
    wr.cmd = MemCmd::Write;
    // Block id 64 + 3 aliases onto block 3.
    wr.addr = (64 + 3) * blockBytes;
    wr.data = d;
    ctl.access(std::move(wr), [](MemPacket &&) {});
    eq.run();
    EXPECT_EQ(ctl.oram().read(3), d);
}
