/**
 * @file
 * Cache hierarchy tests: the functional cache, hit/miss timing,
 * MSHRs, writebacks, coherence and flushes.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cpu/cache_hierarchy.hh"
#include "mem/backing_store.hh"
#include "util/random.hh"

using namespace obfusmem;

namespace {

/** Memory stub with configurable latency that records packets. */
class StubMemory : public MemSink
{
  public:
    StubMemory(EventQueue &eq, Tick latency = 100 * tickPerNs)
        : eq(eq), latency(latency)
    {}

    void
    access(MemPacket pkt, PacketCallback cb) override
    {
        if (pkt.isWrite()) {
            ++writes;
            contents[pkt.addr] = pkt.data;
        } else {
            ++reads;
        }
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

    EventQueue &eq;
    Tick latency;
    uint64_t reads = 0, writes = 0;
    std::map<uint64_t, DataBlock> contents;
};

class CacheFixture : public ::testing::Test
{
  protected:
    CacheFixture()
        : stats("test", nullptr), mem(eq),
          caches("caches", eq, &stats, HierarchyParams{}, mem)
    {}

    Tick
    load(int core, uint64_t addr)
    {
        Tick done = 0;
        bool fired = false;
        caches.load(core, addr, eq.curTick(), [&](Tick t) {
            done = t;
            fired = true;
        });
        eq.run();
        EXPECT_TRUE(fired);
        return done;
    }

    Tick
    store(int core, uint64_t addr, uint8_t fill)
    {
        DataBlock data;
        data.fill(fill);
        Tick done = 0;
        caches.store(core, addr, data, eq.curTick(),
                     [&](Tick t) { done = t; });
        eq.run();
        return done;
    }

    EventQueue eq;
    statistics::Group stats;
    StubMemory mem;
    CacheHierarchy caches;
    HierarchyParams params;
};

} // namespace

TEST(FuncCache, InsertFindInvalidate)
{
    FuncCache cache(CacheParams{4096, 4, 1});
    DataBlock data{};
    data[0] = 7;
    EXPECT_EQ(cache.find(0x100), nullptr);
    cache.insert(0x100, data, true, false);
    auto *line = cache.find(0x100);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(cache.data(*line)[0], 7);
    EXPECT_TRUE(line->dirty);

    auto victim = cache.invalidate(0x100);
    EXPECT_TRUE(victim.valid);
    EXPECT_TRUE(victim.dirty);
    EXPECT_EQ(cache.find(0x100), nullptr);
}

TEST(FuncCache, LruEviction)
{
    // 2-way, 2 sets (256 B at 64 B blocks).
    FuncCache cache(CacheParams{256, 2, 1});
    DataBlock data{};
    // Three blocks mapping to set 0: addresses 0, 128, 256.
    cache.insert(0, data, false, false);
    cache.insert(128, data, false, false);
    cache.find(0); // touch 0, making 128 the LRU
    auto victim = cache.insert(256, data, false, false);
    EXPECT_TRUE(victim.valid);
    EXPECT_EQ(victim.addr, 128u);
    EXPECT_NE(cache.find(0), nullptr);
    EXPECT_NE(cache.find(256), nullptr);
}

TEST(FuncCache, InsertMergesOnHit)
{
    FuncCache cache(CacheParams{4096, 4, 1});
    DataBlock a{}, b{};
    a[0] = 1;
    b[0] = 2;
    cache.insert(0x40, a, false, false);
    auto victim = cache.insert(0x40, b, true, true);
    EXPECT_FALSE(victim.valid);
    auto *line = cache.find(0x40);
    EXPECT_EQ(cache.data(*line)[0], 2);
    EXPECT_TRUE(line->dirty);
    EXPECT_TRUE(line->exclusive);
}

TEST(FuncCache, NeverWrittenLinesMatchAnEagerTwin)
{
    // A seeded mix of inserts (some never-written), finds (some
    // writing, as a store hit does) and invalidations, replayed on a
    // twin that inserts the never-written bytes eagerly. 4 sets x 4
    // ways over 48 blocks, so most inserts displace a victim.
    const CacheParams params{1024, 4, 1};
    FuncCache lazy(params);
    FuncCache eager(params);
    Random rng(2024);
    auto random_block = [&rng]() {
        DataBlock d;
        rng.fillBytes(d.data(), d.size());
        return d;
    };
    auto same_victim = [](const FuncCache::Victim &l,
                          const FuncCache::Victim &e) {
        ASSERT_EQ(l.valid, e.valid);
        if (!l.valid)
            return;
        EXPECT_EQ(l.addr, e.addr);
        ASSERT_EQ(l.dirty, e.dirty);
        if (l.dirty) {
            EXPECT_EQ(l.data(), e.data());
        }
    };
    auto same_line = [&](uint64_t addr) {
        const FuncCache::Line *l = lazy.peek(addr);
        const FuncCache::Line *e = eager.peek(addr);
        ASSERT_EQ(l == nullptr, e == nullptr) << addr;
        if (!l)
            return;
        EXPECT_EQ(l->dirty, e->dirty);
        EXPECT_EQ(l->exclusive, e->exclusive);
        EXPECT_EQ(lazy.data(*l), eager.data(*e)) << addr;
    };

    uint64_t victims = 0;
    for (int op = 0; op < 20000; ++op) {
        uint64_t addr = 0x40000 + rng.randUnder(48) * blockBytes;
        bool dirty = rng.chance(0.3);
        bool exclusive = rng.chance(0.5);
        switch (rng.randUnder(5)) {
          case 0: {
            auto v = lazy.insertNeverWritten(addr, dirty, exclusive);
            victims += v.valid;
            same_victim(v, eager.insert(addr, neverWrittenBlock(addr),
                                        dirty, exclusive));
            break;
          }
          case 1: {
            DataBlock d = random_block();
            auto v = lazy.insert(addr, d, dirty, exclusive);
            victims += v.valid;
            same_victim(v, eager.insert(addr, d, dirty, exclusive));
            break;
          }
          case 2: {
            FuncCache::Line *l = lazy.find(addr);
            FuncCache::Line *e = eager.find(addr);
            ASSERT_EQ(l == nullptr, e == nullptr);
            if (l && rng.chance(0.5)) {
                DataBlock d = random_block();
                lazy.setData(*l, d);
                eager.setData(*e, d);
                l->dirty = e->dirty = true;
            }
            break;
          }
          case 3:
            same_victim(lazy.invalidate(addr), eager.invalidate(addr));
            break;
          default:
            same_line(addr);
            break;
        }
    }
    EXPECT_GT(victims, 1000u);
    for (uint64_t b = 0; b < 48; ++b)
        same_line(0x40000 + b * blockBytes);
}

TEST_F(CacheFixture, MissGoesToMemoryHitDoesNot)
{
    load(0, 0x1000);
    EXPECT_EQ(mem.reads, 1u);
    load(0, 0x1000);
    EXPECT_EQ(mem.reads, 1u); // L1 hit now
}

TEST_F(CacheFixture, HitLatenciesAreLevelDependent)
{
    Tick miss_time = load(0, 0x2000) - eq.curTick() + mem.latency;
    (void)miss_time;

    // L1 hit: 2 cycles at 500 ps.
    Tick start = eq.curTick();
    Tick l1 = load(0, 0x2000);
    EXPECT_EQ(l1 - start, params.l1.latencyCycles * 500);
}

TEST_F(CacheFixture, MissLatencyIncludesMemory)
{
    Tick start = eq.curTick();
    Tick done = load(0, 0x3000);
    EXPECT_GE(done - start, mem.latency);
}

TEST_F(CacheFixture, MshrMergesConcurrentMisses)
{
    int completions = 0;
    caches.load(0, 0x4000, eq.curTick(),
                [&](Tick) { ++completions; });
    caches.load(1, 0x4000, eq.curTick(),
                [&](Tick) { ++completions; });
    eq.run();
    EXPECT_EQ(completions, 2);
    EXPECT_EQ(mem.reads, 1u); // one fill serves both
    EXPECT_EQ(stats.scalarValue("caches.mshrMerges"), 1.0);
}

TEST_F(CacheFixture, StoreWritesThroughOnEviction)
{
    store(0, 0x5000, 0xab);
    EXPECT_EQ(mem.writes, 0u); // dirty in cache

    bool flushed = false;
    caches.flushAll(eq.curTick(), [&](Tick) { flushed = true; });
    eq.run();
    EXPECT_TRUE(flushed);
    ASSERT_EQ(mem.writes, 1u);
    EXPECT_EQ(mem.contents[0x5000][0], 0xab);
}

TEST_F(CacheFixture, StoreDataVisibleToOtherCore)
{
    store(0, 0x6000, 0x42);
    // Core 1 loads the same block: coherence must supply core 0's
    // dirty data.
    DataBlock out{};
    bool got = false;
    caches.load(1, 0x6000, eq.curTick(), [&](Tick) { got = true; });
    eq.run();
    EXPECT_TRUE(got);
    EXPECT_TRUE(caches.peekBlock(0x6000, out));
    EXPECT_EQ(out[0], 0x42);
    EXPECT_GE(stats.scalarValue("caches.downgrades"), 1.0);
}

TEST_F(CacheFixture, StoreInvalidatesOtherSharers)
{
    load(0, 0x7000);
    load(1, 0x7000);
    store(2, 0x7000, 0x99);
    EXPECT_GE(stats.scalarValue("caches.invalidations"), 2.0);

    DataBlock out{};
    EXPECT_TRUE(caches.peekBlock(0x7000, out));
    EXPECT_EQ(out[0], 0x99);
}

TEST_F(CacheFixture, SequentialStoresLastWins)
{
    store(0, 0x8000, 1);
    store(1, 0x8000, 2);
    store(0, 0x8000, 3);
    DataBlock out{};
    EXPECT_TRUE(caches.peekBlock(0x8000, out));
    EXPECT_EQ(out[0], 3);
}

TEST_F(CacheFixture, WouldMissProbe)
{
    EXPECT_TRUE(caches.wouldMiss(0, 0x9000));
    load(0, 0x9000);
    EXPECT_FALSE(caches.wouldMiss(0, 0x9000));
    // Another core shares the L3 copy.
    EXPECT_FALSE(caches.wouldMiss(1, 0x9000));
}

TEST_F(CacheFixture, PreloadAvoidsMemoryTraffic)
{
    caches.preload(0, 0xa000);
    EXPECT_EQ(mem.reads, 0u);
    load(0, 0xa000);
    EXPECT_EQ(mem.reads, 0u);
    DataBlock out{};
    EXPECT_TRUE(caches.peekBlock(0xa000, out));
    EXPECT_EQ(out, neverWrittenBlock(0xa000));
}

TEST_F(CacheFixture, PreloadSharedDirtyProducesWriteback)
{
    // Fill one L3 set completely with dirty preloads, then force an
    // eviction with demand fills to the same set.
    uint64_t l3_sets = (params.l3.sizeBytes / 64) / params.l3.assoc;
    uint64_t set_stride = l3_sets * 64;
    for (unsigned w = 0; w < params.l3.assoc; ++w)
        caches.preloadShared(w * set_stride, true);
    load(0, params.l3.assoc * set_stride);
    eq.run();
    EXPECT_GE(mem.writes, 1u);
    EXPECT_EQ(stats.scalarValue("caches.writebacks"), mem.writes);
    // The written-back victim carries its never-written content.
    for (const auto &[addr, data] : mem.contents)
        EXPECT_EQ(data, neverWrittenBlock(addr));
}

TEST_F(CacheFixture, StreamingEvictsCleanlyWithoutWrites)
{
    // Read-only streaming never writes back.
    for (uint64_t i = 0; i < 1000; ++i)
        load(0, 0x100000 + i * 64);
    EXPECT_EQ(mem.writes, 0u);
}

TEST_F(CacheFixture, InclusiveL3EvictionInvalidatesL1)
{
    // Fill an L3 set with blocks from different cores; the victim's
    // private copies must be expelled too.
    uint64_t l3_sets = (params.l3.sizeBytes / 64) / params.l3.assoc;
    uint64_t set_stride = l3_sets * 64;

    load(0, 0); // the block we will evict
    for (unsigned w = 1; w <= params.l3.assoc; ++w)
        load(1, w * set_stride);

    // Core 0's copy must be gone: loading it again misses to memory.
    uint64_t reads_before = mem.reads;
    load(0, 0);
    EXPECT_EQ(mem.reads, reads_before + 1);
}

TEST_F(CacheFixture, LlcMissCountTracksDemandMisses)
{
    EXPECT_EQ(caches.llcMissCount(), 0u);
    load(0, 0x10000);
    load(0, 0x20000);
    load(0, 0x10000); // hit
    EXPECT_EQ(caches.llcMissCount(), 2u);
}
