/**
 * @file
 * Full-system integration tests across every protection mode.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "system/system.hh"

using namespace obfusmem;

namespace {

SystemConfig
quickConfig(ProtectionMode mode, const std::string &bench = "milc")
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.benchmark = bench;
    cfg.cores = 2;
    cfg.instrPerCore = 20000;
    if (mode == ProtectionMode::OramDetailed) {
        // Size the tree for the workload: the functional structure
        // keeps every distinct block ever touched, so a tree whose
        // capacity is below that count inflates the stash without
        // bound (and now fail-stops, as a real controller would
        // deadlock). levels=14 holds ~65k blocks, far above what
        // 2x3000 instructions touch.
        cfg.oramDetailed.oram.levels = 14;
        cfg.oramDetailed.oram.stashLimit = 500;
        cfg.instrPerCore = 3000;
    }
    if (mode == ProtectionMode::FlatOram
        || mode == ProtectionMode::WriteOnlyOram) {
        cfg.instrPerCore = 3000;
    }
    return cfg;
}

class AllModes : public ::testing::TestWithParam<ProtectionMode>
{
};

} // namespace

TEST_P(AllModes, WorkloadRunsToCompletion)
{
    System sys(quickConfig(GetParam()));
    auto result = sys.run();
    EXPECT_EQ(result.instructions,
              sys.config().cores * sys.config().instrPerCore);
    EXPECT_GT(result.execTicks, 0u);
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_GT(result.llcMisses, 0u);
}

TEST_P(AllModes, DataSurvivesTheFullPath)
{
    System sys(quickConfig(GetParam()));
    DataBlock data;
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(0xc0 ^ (i * 7));
    sys.timedStore(0, 0x8000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_EQ(sys.functionalRead(0x8000), data);
}

TEST_P(AllModes, StatsDumpMentionsCoreComponents)
{
    System sys(quickConfig(GetParam()));
    sys.run();
    std::ostringstream oss;
    sys.dumpStats(oss);
    EXPECT_NE(oss.str().find("system.caches.llcMisses"),
              std::string::npos);
    EXPECT_NE(oss.str().find("system.core0.loads"),
              std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllModes,
    ::testing::Values(ProtectionMode::Unprotected,
                      ProtectionMode::EncryptionOnly,
                      ProtectionMode::ObfusMem,
                      ProtectionMode::ObfusMemAuth,
                      ProtectionMode::OramFixed,
                      ProtectionMode::OramDetailed,
                      ProtectionMode::FlatOram,
                      ProtectionMode::WriteOnlyOram),
    [](const ::testing::TestParamInfo<ProtectionMode> &info) {
        std::string name = protectionModeName(info.param);
        for (char &c : name) {
            if (c == '-' || c == '+')
                c = '_';
        }
        return name;
    });

TEST(SystemInvariants, MpkiIndependentOfProtection)
{
    // Access-pattern obfuscation must not change what the caches do.
    auto mpki = [](ProtectionMode mode) {
        System sys(quickConfig(mode));
        return sys.run().mpki;
    };
    double base = mpki(ProtectionMode::Unprotected);
    EXPECT_NEAR(mpki(ProtectionMode::ObfusMemAuth), base, 1e-9);
    EXPECT_NEAR(mpki(ProtectionMode::OramFixed), base, 1e-9);
}

TEST(SystemInvariants, ProtectionCostOrdering)
{
    // The paper's headline: unprotected <= ObfusMem variants << ORAM.
    auto time = [](ProtectionMode mode) {
        System sys(quickConfig(mode, "soplex"));
        return sys.run().execTicks;
    };
    Tick base = time(ProtectionMode::Unprotected);
    Tick obfus_auth = time(ProtectionMode::ObfusMemAuth);
    Tick oram = time(ProtectionMode::OramFixed);
    EXPECT_LE(base, obfus_auth);
    EXPECT_LT(obfus_auth * 3, oram); // ~order of magnitude in paper
}

TEST(SystemInvariants, OramWriteAmplificationObfusMemNone)
{
    SystemConfig cfg = quickConfig(ProtectionMode::ObfusMemAuth);
    System obfus(cfg);
    auto obfus_result = obfus.run();

    System base(quickConfig(ProtectionMode::Unprotected));
    auto base_result = base.run();

    System oram(quickConfig(ProtectionMode::OramFixed));
    oram.run();

    // ObfusMem: zero write amplification (equal up to end-of-run
    // row-buffer state).
    EXPECT_LT(obfus_result.cellWrites,
              base_result.cellWrites * 1.15 + 200);
    // ORAM (fixed model): ~100 blocks written per access.
    const statistics::Group &stats = oram.rootStats();
    EXPECT_EQ(stats.scalarValue("oram.pathBlocksWritten"),
              stats.scalarValue("oram.accesses") * 100);
}

TEST(SystemInvariants, CapacityOverheadComparison)
{
    // Table 4: ORAM >= 100% storage overhead, ObfusMem zero (one
    // reserved dummy block per channel).
    PathOram::Params oram_params;
    oram_params.levels = 24;
    PathOram oram(oram_params);
    EXPECT_GE(oram.physicalBlocks(), 2 * oram.capacityBlocks());

    SystemConfig cfg = quickConfig(ProtectionMode::ObfusMemAuth);
    cfg.channels = 4;
    uint64_t reserved = cfg.channels * blockBytes;
    EXPECT_LT(static_cast<double>(reserved) / cfg.capacityBytes,
              1e-6);
}

TEST(SystemInvariants, AverageGapTracksMissRate)
{
    System fast(quickConfig(ProtectionMode::Unprotected, "hmmer"));
    auto low_traffic = fast.run();
    System heavy(quickConfig(ProtectionMode::Unprotected, "soplex"));
    auto high_traffic = heavy.run();
    EXPECT_GT(low_traffic.avgGapNs, high_traffic.avgGapNs);
}

TEST(SystemInvariants, DeterministicAcrossRuns)
{
    System a(quickConfig(ProtectionMode::ObfusMemAuth));
    System b(quickConfig(ProtectionMode::ObfusMemAuth));
    auto ra = a.run();
    auto rb = b.run();
    EXPECT_EQ(ra.execTicks, rb.execTicks);
    EXPECT_EQ(ra.llcMisses, rb.llcMisses);
    EXPECT_EQ(ra.cellWrites, rb.cellWrites);
}

TEST(SystemInvariants, SeedChangesChangeTiming)
{
    SystemConfig cfg = quickConfig(ProtectionMode::Unprotected);
    System a(cfg);
    cfg.seed = 1234;
    System b(cfg);
    EXPECT_NE(a.run().execTicks, b.run().execTicks);
}

TEST(SystemWarmup, WarmedBlocksReadAsNeverWrittenMemory)
{
    // Warm-up models a fast-forward before anything was written, so
    // every warmed block must read as untouched memory, both from the
    // caches and, once the flush has written the dirty ones back,
    // from memory.
    SystemConfig cfg = quickConfig(ProtectionMode::Unprotected);
    System sys(cfg);
    const BackingStore fresh(cfg.capacityBytes);
    const BenchmarkProfile &profile =
        BenchmarkProfile::byName(cfg.benchmark);

    // The blocks System::buildCores warms: each core's hot set, and
    // the stream blocks the core just passed.
    std::vector<uint64_t> warmed;
    uint64_t per_core =
        (cfg.hierarchy.l3.sizeBytes / blockBytes * 9 / 10) / cfg.cores;
    for (unsigned c = 0; c < cfg.cores; ++c) {
        for (uint64_t off = 0; off < profile.hotBytes; off += blockBytes)
            warmed.push_back(cfg.workloadBase(c) + off);
        WorkloadGenerator probe(profile, cfg.workloadBase(c),
                                cfg.workloadRegionBytes(),
                                cfg.seed * 1000003 + c);
        uint64_t region = probe.streamRegionBlocks();
        for (uint64_t i = 1; i <= per_core; ++i) {
            uint64_t block =
                (probe.streamStartBlock() + region - i) % region;
            warmed.push_back(probe.streamRegionBase()
                             + block * blockBytes);
        }
    }
    for (uint64_t addr : warmed)
        ASSERT_EQ(sys.functionalRead(addr), fresh.read(addr)) << addr;

    sys.flushAndDrain();
    const BackingStore &store = sys.backingStore();
    size_t written = 0;
    for (uint64_t addr : warmed) {
        if (store.populated(addr)) {
            ++written;
            ASSERT_EQ(store.read(addr), fresh.read(addr)) << addr;
        }
        ASSERT_EQ(sys.functionalRead(addr), fresh.read(addr)) << addr;
    }
    EXPECT_GT(written, 0u);
    EXPECT_EQ(written, store.blocksAllocated());
}

TEST(SystemConfig, CoreCountSizesTheHierarchy)
{
    SystemConfig cfg = quickConfig(ProtectionMode::Unprotected);
    cfg.cores = 5;
    System sys(cfg);
    EXPECT_EQ(sys.hierarchy().numCores(), 5u);
    EXPECT_EQ(sys.run().instructions, 5 * cfg.instrPerCore);
}

TEST(SystemConfigDeathTest, RejectsCoreCountsTheDirectoryCannotTrack)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SystemConfig cfg = quickConfig(ProtectionMode::Unprotected);
    cfg.cores = 0;
    EXPECT_EXIT({ System sys(cfg); }, ::testing::ExitedWithCode(1),
                "cores must be 1..32, got 0");
    cfg.cores = 33;
    EXPECT_EXIT({ System sys(cfg); }, ::testing::ExitedWithCode(1),
                "cores must be 1..32, got 33");
}

TEST(SystemConfig, MemoryLayoutRegionsDisjoint)
{
    SystemConfig cfg;
    // Workloads < counters < BMT < ORAM tree < capacity.
    uint64_t workload_end =
        cfg.workloadBase(cfg.cores - 1) + cfg.workloadRegionBytes();
    EXPECT_LE(workload_end, cfg.counterRegionBase());
    EXPECT_LT(cfg.counterRegionBase(), cfg.bmtRegionBase());
    EXPECT_LT(cfg.bmtRegionBase(), cfg.oramTreeBase());
    EXPECT_LT(cfg.oramTreeBase(), cfg.capacityBytes);
}

TEST(SystemConfig, ModeNamesAreDistinct)
{
    std::set<std::string> names;
    for (const auto &info : allBackendInfos())
        names.insert(info.name);
    EXPECT_EQ(names.size(), allBackendInfos().size());
    EXPECT_EQ(names.size(), 8u);
}

TEST(SystemConfig, BackendRegistryRoundTrips)
{
    for (const auto &info : allBackendInfos()) {
        EXPECT_EQ(backendInfo(info.mode).name, info.name);
        const ObliviousBackendInfo *by_name =
            backendInfoByName(info.name);
        ASSERT_NE(by_name, nullptr);
        EXPECT_EQ(by_name->mode, info.mode);
    }
    // Documented aliases resolve too; junk does not.
    EXPECT_EQ(backendInfoByName("encryption")->mode,
              ProtectionMode::EncryptionOnly);
    EXPECT_EQ(backendInfoByName("obfusmem-auth")->mode,
              ProtectionMode::ObfusMemAuth);
    EXPECT_EQ(backendInfoByName("no-such-backend"), nullptr);
}
