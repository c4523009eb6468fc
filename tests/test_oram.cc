/**
 * @file
 * Path ORAM tests: the functional algorithm's invariants and data
 * integrity, plus the two timing models.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>

#include "oram/oram_controller.hh"
#include "oram/path_oram.hh"
#include "system/system.hh"
#include "util/random.hh"

using namespace obfusmem;

TEST(PathOram, ReadAfterWrite)
{
    PathOram::Params params;
    params.levels = 8;
    PathOram oram(params);
    DataBlock data{};
    data[0] = 0x11;
    oram.write(42, data);
    EXPECT_EQ(oram.read(42), data);
}

TEST(PathOram, GeometryMatchesParameters)
{
    PathOram::Params params;
    params.levels = 10;
    params.bucketSize = 4;
    PathOram oram(params);
    EXPECT_EQ(oram.pathBuckets(), 11u);
    EXPECT_EQ(oram.pathBlocks(), 44u);
    EXPECT_EQ(oram.physicalBlocks(), ((2ull << 10) - 1) * 4);
    // >= 100% storage overhead: half the tree is usable.
    EXPECT_EQ(oram.capacityBlocks(), oram.physicalBlocks() / 2);
}

TEST(PathOram, PaperGeometryAmplification)
{
    // L=24, Z=4: ~100 blocks per path (paper Sec. 2.3).
    PathOram::Params params;
    params.levels = 24;
    PathOram oram(params);
    EXPECT_EQ(oram.pathBlocks(), 100u);
}

class PathOramRandomOps
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(PathOramRandomOps, MatchesReferenceMapAndInvariant)
{
    auto [levels, bucket_size] = GetParam();
    PathOram::Params params;
    params.levels = levels;
    params.bucketSize = bucket_size;
    params.stashLimit = 1000;
    PathOram oram(params);

    Random rng(levels * 100 + bucket_size);
    std::map<uint64_t, DataBlock> reference;
    uint64_t block_space = oram.capacityBlocks();

    for (int op = 0; op < 600; ++op) {
        uint64_t block = rng.randUnder(block_space);
        if (rng.chance(0.5)) {
            DataBlock data;
            rng.fillBytes(data.data(), data.size());
            oram.write(block, data);
            reference[block] = data;
        } else if (reference.count(block)) {
            EXPECT_EQ(oram.read(block), reference[block]);
        }
        if (op % 100 == 99) {
            EXPECT_TRUE(oram.checkInvariant()) << "op " << op; }
    }
    EXPECT_TRUE(oram.checkInvariant());
    EXPECT_EQ(oram.stashOverflows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PathOramRandomOps,
    ::testing::Values(std::make_pair(6u, 4u), std::make_pair(8u, 4u),
                      std::make_pair(10u, 4u), std::make_pair(8u, 2u),
                      std::make_pair(8u, 6u),
                      // The paper's geometry; the tree stores only
                      // the blocks placed, so this costs milliseconds.
                      std::make_pair(24u, 4u)));

TEST(PathOram, RemapsToFreshLeaves)
{
    PathOram::Params params;
    params.levels = 10;
    PathOram oram(params);
    DataBlock data{};
    oram.write(7, data);
    int changes = 0;
    auto prev = oram.leafOf(7);
    for (int i = 0; i < 50; ++i) {
        oram.read(7);
        auto cur = oram.leafOf(7);
        if (cur != prev)
            ++changes;
        prev = cur;
    }
    // With 1024 leaves, nearly every access picks a new leaf.
    EXPECT_GT(changes, 40);
}

TEST(PathOram, PathSlotsCoverWholePath)
{
    PathOram::Params params;
    params.levels = 6;
    PathOram oram(params);
    oram.read(1);
    EXPECT_EQ(oram.lastPathSlots().size(), oram.pathBlocks());
    // The root bucket (0) is always on the path.
    bool has_root = false;
    for (const auto &slot : oram.lastPathSlots())
        has_root |= slot.bucket == 0;
    EXPECT_TRUE(has_root);
}

TEST(PathOram, StashBoundedAtHalfUtilization)
{
    PathOram::Params params;
    params.levels = 8;
    params.stashLimit = 200;
    PathOram oram(params);
    Random rng(3);
    uint64_t blocks = oram.capacityBlocks() / 2;
    for (int i = 0; i < 2000; ++i) {
        DataBlock d{};
        oram.write(rng.randUnder(blocks), d);
    }
    EXPECT_EQ(oram.stashOverflows(), 0u);
    EXPECT_LT(oram.maxStashSize(), 60u);
}

TEST(PathOram, OverfillingTriggersStashPressure)
{
    // Push far past the designed utilization: the stash grows, which
    // is exactly the overflow/deadlock risk the paper describes.
    // Opt out of fail-stop to *measure* the overflow frequency.
    PathOram::Params params;
    params.levels = 4; // 31 buckets * 4 = 124 physical slots
    params.stashLimit = 8;
    params.failOnOverflow = false;
    PathOram oram(params);
    Random rng(4);
    DataBlock d{};
    // More live blocks than the tree has slots: the surplus has
    // nowhere to evict and piles up in the stash.
    for (int i = 0; i < 300; ++i)
        oram.write(i, d);
    EXPECT_GT(oram.maxStashSize(), 8u);
    EXPECT_GT(oram.stashOverflows(), 0u);
}

TEST(PathOramDeathTest, StashOverflowFailStopsByDefault)
{
    // Regression for the silent-overflow bug: a stash past its limit
    // means a hardware controller deadlocks, so by default the model
    // must abort, not keep simulating an impossible machine.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    PathOram::Params params;
    params.levels = 4;
    params.stashLimit = 8;
    PathOram oram(params);
    DataBlock d{};
    EXPECT_DEATH(
        {
            for (int i = 0; i < 300; ++i)
                oram.write(i, d);
        },
        "stash overflow");
}

TEST(PathOram, TransientPeakExceedsPostEvictionStash)
{
    // The mid-access peak holds the whole path plus the accessed
    // block before eviction drains it; sampling only after eviction
    // (the old behavior) systematically under-reports the occupancy
    // a hardware stash must be provisioned for.
    PathOram::Params params;
    params.levels = 8;
    params.stashLimit = 300;
    PathOram oram(params);
    Random rng(9);
    uint64_t blocks = oram.capacityBlocks() / 2;
    for (int i = 0; i < 500; ++i) {
        DataBlock d{};
        oram.write(rng.randUnder(blocks), d);
        EXPECT_GE(oram.lastAccessPeakStash(), oram.stashSize());
    }
    EXPECT_GE(oram.maxTransientStashSize(), oram.maxStashSize());
    // Once the tree is warm, the peak includes a path's worth of
    // read-in blocks on top of the resident stash.
    EXPECT_GT(oram.maxTransientStashSize(), oram.maxStashSize() + 4);
    EXPECT_EQ(oram.stashOverflows(), 0u);
}

namespace {

uint64_t
wordAt(const std::string &bytes, size_t at)
{
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
}

/** Whether a checkpoint loads with its u64 at @p at set to @p value. */
bool
loadsPatched(const PathOram::Params &params, std::string bytes, size_t at,
             uint64_t value)
{
    std::memcpy(bytes.data() + at, &value, sizeof(value));
    std::stringstream in(bytes);
    PathOram oram(params);
    return oram.deserialize(in);
}

} // namespace

TEST(PathOram, SerializeRoundTripsAndReplaysIdentically)
{
    PathOram::Params params;
    params.levels = 7;
    params.stashLimit = 400;
    PathOram a(params);
    Random rng(11);
    for (int i = 0; i < 400; ++i) {
        DataBlock d;
        rng.fillBytes(d.data(), d.size());
        a.write(rng.randUnder(a.capacityBlocks() / 2), d);
    }

    std::stringstream snap;
    a.serialize(snap);
    PathOram b(params);
    ASSERT_TRUE(b.deserialize(snap));

    // Same state and same RNG stream: both instances must now behave
    // bit-identically, including leaf remaps.
    for (int i = 0; i < 200; ++i) {
        uint64_t block = static_cast<uint64_t>(i * 37) % 64;
        EXPECT_EQ(a.read(block), b.read(block)) << "block " << block;
        EXPECT_EQ(a.leafOf(block), b.leafOf(block));
    }
    EXPECT_EQ(a.stashSize(), b.stashSize());
    EXPECT_TRUE(b.checkInvariant());

    // A truncated stream is rejected cleanly.
    std::stringstream full;
    a.serialize(full);
    std::string bytes = full.str();
    std::stringstream cut(bytes.substr(0, bytes.size() / 2));
    PathOram c(params);
    EXPECT_FALSE(c.deserialize(cut));

    // A leaf or slot index outside the tree is rejected, not followed
    // out of the tree by the next access. Layout after magic, L and Z:
    // the position map (count, {id, leaf}), the stash (count, {id,
    // leaf, data}) and the tree (count, {index, id, leaf, data}).
    const uint64_t leaves = uint64_t{1} << params.levels;
    const size_t pos_at = 3 * 8;
    const size_t stash_at = pos_at + 8 + 16 * wordAt(bytes, pos_at);
    const size_t tree_at = stash_at + 8 + 80 * wordAt(bytes, stash_at);
    ASSERT_GT(wordAt(bytes, tree_at), 0u);
    EXPECT_TRUE(loadsPatched(params, bytes, pos_at, wordAt(bytes, pos_at)));
    EXPECT_FALSE(loadsPatched(params, bytes, pos_at + 16, 1ull << 40));
    EXPECT_FALSE(
        loadsPatched(params, bytes, tree_at + 8, a.physicalBlocks()));
    EXPECT_FALSE(loadsPatched(params, bytes, tree_at + 24, leaves));

    // More live blocks than the 28 slots of an L=2 tree leave some in
    // the stash: a stash leaf outside the tree is rejected too.
    PathOram::Params tiny = params;
    tiny.levels = 2;
    PathOram over(tiny);
    for (uint64_t block = 0; block < 40; ++block)
        over.write(block, DataBlock{});
    ASSERT_GT(over.stashSize(), 0u);
    std::stringstream over_snap;
    over.serialize(over_snap);
    const std::string over_bytes = over_snap.str();
    const size_t over_stash_at =
        pos_at + 8 + 16 * wordAt(over_bytes, pos_at);
    EXPECT_TRUE(loadsPatched(tiny, over_bytes, pos_at, 40));
    EXPECT_FALSE(loadsPatched(tiny, over_bytes, over_stash_at + 16, 4));
}

TEST(PathOram, OccupancyNeverExceedsOne)
{
    PathOram::Params params;
    params.levels = 6;
    PathOram oram(params);
    Random rng(5);
    DataBlock d{};
    for (int i = 0; i < 200; ++i)
        oram.write(rng.randUnder(oram.capacityBlocks()), d);
    EXPECT_GT(oram.occupancy(), 0.0);
    EXPECT_LE(oram.occupancy(), 1.0);
}

TEST(OramFixedLatency, AccessTakes2500ns)
{
    EventQueue eq;
    statistics::Group stats("test", nullptr);
    BackingStore store(1ull << 30);
    OramFixedLatency oram("oram", eq, &stats,
                          OramFixedLatency::Params{}, store);
    Tick done = 0;
    MemPacket pkt;
    pkt.cmd = MemCmd::Read;
    pkt.addr = 0x1000;
    oram.access(std::move(pkt),
                [&](MemPacket &&) { done = eq.curTick(); });
    eq.run();
    EXPECT_EQ(done, 2500 * tickPerNs);
}

TEST(OramFixedLatency, InitiationIntervalSerializes)
{
    EventQueue eq;
    statistics::Group stats("test", nullptr);
    BackingStore store(1ull << 30);
    OramFixedLatency::Params params;
    OramFixedLatency oram("oram", eq, &stats, params, store);
    std::vector<Tick> done;
    for (int i = 0; i < 3; ++i) {
        MemPacket pkt;
        pkt.cmd = MemCmd::Read;
        pkt.addr = 0x1000 + i * 64;
        oram.access(std::move(pkt),
                    [&](MemPacket &&) { done.push_back(eq.curTick()); });
    }
    eq.run();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[1] - done[0], params.initiationInterval);
    EXPECT_EQ(done[2] - done[1], params.initiationInterval);
}

TEST(OramFixedLatency, AccountsPathTraffic)
{
    EventQueue eq;
    statistics::Group stats("test", nullptr);
    BackingStore store(1ull << 30);
    OramFixedLatency oram("oram", eq, &stats,
                          OramFixedLatency::Params{}, store);
    for (int i = 0; i < 5; ++i) {
        MemPacket pkt;
        pkt.cmd = i % 2 ? MemCmd::Write : MemCmd::Read;
        pkt.addr = i * 64;
        oram.access(std::move(pkt), [](MemPacket &&) {});
    }
    eq.run();
    EXPECT_EQ(oram.accessCount(), 5u);
    // 100 blocks read + 100 written per access, reads and writes
    // alike (the source of ORAM's ~100x write amplification).
    EXPECT_EQ(oram.blocksRead(), 5 * oram.pathBlocks());
    EXPECT_EQ(oram.blocksWritten(), 5 * oram.pathBlocks());
}

TEST(OramFixedLatency, FunctionalReadWrite)
{
    EventQueue eq;
    statistics::Group stats("test", nullptr);
    BackingStore store(1ull << 30);
    OramFixedLatency oram("oram", eq, &stats,
                          OramFixedLatency::Params{}, store);
    DataBlock data{};
    data[5] = 0x99;
    MemPacket wr;
    wr.cmd = MemCmd::Write;
    wr.addr = 0x2000;
    wr.data = data;
    oram.access(std::move(wr), [](MemPacket &&) {});
    DataBlock out{};
    MemPacket rd;
    rd.cmd = MemCmd::Read;
    rd.addr = 0x2000;
    oram.access(std::move(rd),
                [&out](MemPacket &&resp) { out = resp.data; });
    eq.run();
    EXPECT_EQ(out, data);
}

TEST(OramDetailed, DrivesRealMemoryTraffic)
{
    SystemConfig cfg;
    cfg.mode = ProtectionMode::OramDetailed;
    cfg.benchmark = "milc";
    cfg.cores = 1;
    cfg.instrPerCore = 2000;
    cfg.oramDetailed.oram.levels = 14;
    cfg.oramDetailed.oram.stashLimit = 500;
    System sys(cfg);
    auto result = sys.run();
    EXPECT_GT(result.instructions, 0u);

    OramDetailed *oram = sys.oramDetailed();
    ASSERT_NE(oram, nullptr);
    uint64_t accesses = oram->oram().accesses();
    EXPECT_GT(accesses, 0u);
    // Every access moves a full path down and back.
    EXPECT_EQ(oram->blocksTransferred(),
              2 * accesses * oram->oram().pathBlocks());
    EXPECT_TRUE(oram->oram().checkInvariant());
}

TEST(OramDetailed, MuchSlowerThanObfusMem)
{
    SystemConfig cfg;
    cfg.benchmark = "milc";
    cfg.cores = 1;
    cfg.instrPerCore = 2000;

    cfg.mode = ProtectionMode::ObfusMemAuth;
    System obfus(cfg);
    auto obfus_result = obfus.run();

    cfg.mode = ProtectionMode::OramDetailed;
    cfg.oramDetailed.oram.levels = 14;
    cfg.oramDetailed.oram.stashLimit = 500;
    System oram(cfg);
    auto oram_result = oram.run();

    EXPECT_GT(oram_result.execTicks, 2 * obfus_result.execTicks);
}
