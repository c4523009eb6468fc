/**
 * @file
 * Workload generator and trace core tests.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "cpu/core.hh"
#include "cpu/trace_workload.hh"
#include "cpu/workload.hh"

using namespace obfusmem;

namespace {

constexpr uint64_t MB = 1024 * 1024;
constexpr uint64_t GB = 1024 * MB;

class StubMemory : public MemSink
{
  public:
    StubMemory(EventQueue &eq, Tick latency) : eq(eq), latency(latency)
    {}

    void
    access(MemPacket pkt, PacketCallback cb) override
    {
        eq.scheduleAfter(latency,
            [pkt = std::move(pkt), cb = std::move(cb)]() mutable {
                cb(std::move(pkt));
            });
    }

    EventQueue &eq;
    Tick latency;
};

} // namespace

TEST(BenchmarkProfile, FifteenBenchmarksOfTable1)
{
    const auto &profiles = BenchmarkProfile::spec2006();
    EXPECT_EQ(profiles.size(), 15u);
    for (const auto &p : profiles) {
        EXPECT_GT(p.paperIpc, 0.0);
        EXPECT_GT(p.paperMpki, 0.0);
        EXPECT_GT(p.paperGapNs, 0.0);
        EXPECT_GT(p.memRefsPerKI, 0.0);
        EXPECT_LE(p.streamFraction, 1.0);
        EXPECT_GT(p.baseCpi, 0.0);
    }
}

TEST(BenchmarkProfile, LookupByName)
{
    const auto &mcf = BenchmarkProfile::byName("mcf");
    EXPECT_NEAR(mcf.paperMpki, 24.82, 1e-9);
    EXPECT_NEAR(mcf.paperIpc, 0.17, 1e-9);
}

TEST(BenchmarkProfileDeathTest, UnknownNameFatal)
{
    EXPECT_EXIT(BenchmarkProfile::byName("nosuchbench"),
                ::testing::ExitedWithCode(1), "unknown benchmark");
}

TEST(WorkloadGenerator, Deterministic)
{
    const auto &prof = BenchmarkProfile::byName("milc");
    WorkloadGenerator a(prof, 0, 1 * GB, 7);
    WorkloadGenerator b(prof, 0, 1 * GB, 7);
    for (int i = 0; i < 1000; ++i) {
        MemOp x = a.next(), y = b.next();
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.gapInstrs, y.gapInstrs);
        EXPECT_EQ(x.isStore, y.isStore);
        EXPECT_EQ(x.dependent, y.dependent);
    }
}

TEST(WorkloadGenerator, AddressesStayInRegion)
{
    const auto &prof = BenchmarkProfile::byName("soplex");
    uint64_t base = 2 * GB;
    WorkloadGenerator gen(prof, base, 1 * GB, 3);
    for (int i = 0; i < 10000; ++i) {
        MemOp op = gen.next();
        EXPECT_GE(op.addr, base);
        EXPECT_LT(op.addr, base + 1 * GB);
    }
}

TEST(WorkloadGenerator, StreamFractionApproximatesTarget)
{
    const auto &prof = BenchmarkProfile::byName("bwaves");
    WorkloadGenerator gen(prof, 0, 1 * GB, 5);
    int stream = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        stream += gen.next().stream;
    EXPECT_NEAR(stream / double(n), prof.streamFraction, 0.01);
}

TEST(WorkloadGenerator, StoreFractionApproximatesTarget)
{
    const auto &prof = BenchmarkProfile::byName("lbm");
    WorkloadGenerator gen(prof, 0, 1 * GB, 9);
    int stores = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        stores += gen.next().isStore;
    EXPECT_NEAR(stores / double(n), prof.storeFraction, 0.02);
}

TEST(WorkloadGenerator, GapMatchesRefsPerKiloInstr)
{
    const auto &prof = BenchmarkProfile::byName("milc");
    WorkloadGenerator gen(prof, 0, 1 * GB, 11);
    uint64_t instrs = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        instrs += gen.next().gapInstrs + 1; // +1 for the op itself
    double refs_per_ki = 1000.0 * n / instrs;
    EXPECT_NEAR(refs_per_ki, prof.memRefsPerKI,
                prof.memRefsPerKI * 0.05);
}

TEST(WorkloadGenerator, SequentialStreamWalksBlocks)
{
    BenchmarkProfile prof = BenchmarkProfile::byName("libquantum");
    prof.streamFraction = 1.0; // force all-stream
    prof.storeFraction = 0.0;
    prof.dependentFraction = 0.0;
    WorkloadGenerator gen(prof, 0, 1 * GB, 13);
    uint64_t prev = gen.next().addr;
    for (int i = 0; i < 100; ++i) {
        uint64_t cur = gen.next().addr;
        if (cur != prof.hotBytes) { // wrap point
            EXPECT_EQ(cur, prev + 64); }
        prev = cur;
    }
}

TEST(WorkloadGenerator, DependentOnlyOnStreamOps)
{
    const auto &prof = BenchmarkProfile::byName("mcf");
    WorkloadGenerator gen(prof, 0, 1 * GB, 17);
    for (int i = 0; i < 20000; ++i) {
        MemOp op = gen.next();
        if (op.dependent) {
            EXPECT_TRUE(op.stream); }
    }
}

namespace {

/** Run one core on a stub memory and return its finish tick. */
Tick
runCore(const std::string &bench, Tick mem_latency,
        uint64_t instrs = 20000, double dep_override = -1)
{
    EventQueue eq;
    statistics::Group stats("test", nullptr);
    StubMemory mem(eq, mem_latency);
    CacheHierarchy caches("caches", eq, &stats, HierarchyParams{},
                          mem);
    BenchmarkProfile prof = BenchmarkProfile::byName(bench);
    if (dep_override >= 0)
        prof.dependentFraction = dep_override;
    WorkloadGenerator gen(prof, 0, 1ull << 30, 23);
    // Warm the hot working set, as the System does.
    for (uint64_t off = 0; off < prof.hotBytes; off += 64)
        caches.preload(0, off);
    Tick finish = 0;
    TraceCore core("core", eq, &stats, TraceCore::Params{},
                   std::move(gen), caches, 0, instrs,
                   [&finish](Tick t) { finish = t; });
    core.start();
    eq.run();
    EXPECT_TRUE(core.finished());
    EXPECT_EQ(core.instructionsRetired(), instrs);
    return finish;
}

} // namespace

TEST(TraceCore, RunsToCompletion)
{
    EXPECT_GT(runCore("milc", 100 * tickPerNs), 0u);
}

TEST(TraceCore, SlowerMemorySlowsExecution)
{
    Tick fast = runCore("milc", 50 * tickPerNs);
    Tick slow = runCore("milc", 500 * tickPerNs);
    EXPECT_GT(slow, fast);
}

TEST(TraceCore, OramLikeLatencyHurtsByOrderOfMagnitude)
{
    Tick fast = runCore("soplex", 100 * tickPerNs);
    Tick oram = runCore("soplex", 2500 * tickPerNs);
    EXPECT_GT(oram, 3 * fast);
}

TEST(TraceCore, DependenceSerializesMisses)
{
    Tick parallel = runCore("mcf", 300 * tickPerNs, 20000, 0.0);
    Tick serial = runCore("mcf", 300 * tickPerNs, 20000, 1.0);
    EXPECT_GT(serial, parallel);
}

TEST(TraceCore, ComputeBoundBarelyNoticesMemory)
{
    Tick fast = runCore("hmmer", 50 * tickPerNs);
    Tick slow = runCore("hmmer", 1000 * tickPerNs);
    EXPECT_LT(static_cast<double>(slow) / fast, 1.2);
}

TEST(TraceCore, IpcReportedAfterFinish)
{
    EventQueue eq;
    statistics::Group stats("test", nullptr);
    StubMemory mem(eq, 100 * tickPerNs);
    CacheHierarchy caches("caches", eq, &stats, HierarchyParams{},
                          mem);
    WorkloadGenerator gen(BenchmarkProfile::byName("sjeng"), 0,
                          1ull << 30, 29);
    TraceCore core("core", eq, &stats, TraceCore::Params{},
                   std::move(gen), caches, 0, 10000, nullptr);
    EXPECT_EQ(core.ipc(), 0.0);
    core.start();
    eq.run();
    EXPECT_GT(core.ipc(), 0.0);
    EXPECT_LT(core.ipc(), 8.0);
}

TEST(TraceWorkload, ParseAndSerializeRoundTrip)
{
    std::string text =
        "# a comment\n"
        "5 R 1000\n"
        "0 W 2040 S\n"
        "12 R dead00 D S\n"
        "\n"
        "3 W 40 # trailing comment\n"
        "4294967295 R 0xBEEF\n";
    std::istringstream in(text);
    std::vector<MemOp> ops = parseTrace(in);
    ASSERT_EQ(ops.size(), 5u);
    EXPECT_EQ(ops[0].gapInstrs, 5u);
    EXPECT_FALSE(ops[0].isStore);
    EXPECT_EQ(ops[0].addr, 0x1000u);
    EXPECT_TRUE(ops[1].isStore);
    EXPECT_TRUE(ops[1].stream);
    EXPECT_TRUE(ops[2].dependent);
    EXPECT_EQ(ops[2].addr, 0xdead00u);
    EXPECT_EQ(ops[3].gapInstrs, 3u);
    // The widest gap, and an address with a 0x prefix.
    EXPECT_EQ(ops[4].gapInstrs, 4294967295u);
    EXPECT_EQ(ops[4].addr, 0xbeefu);

    std::ostringstream out;
    writeTrace(out, ops);
    std::istringstream back(out.str());
    std::vector<MemOp> again = parseTrace(back);
    ASSERT_EQ(again.size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
        EXPECT_EQ(again[i].addr, ops[i].addr);
        EXPECT_EQ(again[i].isStore, ops[i].isStore);
        EXPECT_EQ(again[i].dependent, ops[i].dependent);
        EXPECT_EQ(again[i].gapInstrs, ops[i].gapInstrs);
    }
}

TEST(TraceWorkload, ReplayerLoops)
{
    std::vector<MemOp> ops(3);
    ops[0].addr = 0x40;
    ops[1].addr = 0x80;
    ops[2].addr = 0xc0;
    WorkloadGenerator gen = makeTraceReplayer(ops, 0.5);
    EXPECT_EQ(gen.profile().name, "trace-replay");
    EXPECT_EQ(gen.profile().baseCpi, 0.5);
    for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(gen.next().addr, 0x40u);
        EXPECT_EQ(gen.next().addr, 0x80u);
        EXPECT_EQ(gen.next().addr, 0xc0u);
    }
}

TEST(TraceWorkload, CoreRunsOnReplayedTrace)
{
    EventQueue eq;
    statistics::Group stats("test", nullptr);
    StubMemory mem(eq, 100 * tickPerNs);
    CacheHierarchy caches("caches", eq, &stats, HierarchyParams{},
                          mem);
    std::vector<MemOp> ops;
    for (int i = 0; i < 50; ++i) {
        MemOp op{};
        op.gapInstrs = 4;
        op.isStore = i % 3 == 0;
        op.addr = 0x100000 + i * 64ull;
        ops.push_back(op);
    }
    Tick finish = 0;
    TraceCore core("core", eq, &stats, TraceCore::Params{},
                   makeTraceReplayer(ops, 1.0), caches, 0, 2000,
                   [&finish](Tick t) { finish = t; });
    core.start();
    eq.run();
    EXPECT_TRUE(core.finished());
    EXPECT_EQ(core.instructionsRetired(), 2000u);
    EXPECT_GT(finish, 0u);
}

TEST(TraceWorkloadDeathTest, RejectsMalformedLines)
{
    struct Bad
    {
        const char *line;
        const char *diagnostic;
    };
    for (const Bad &b : {
             Bad{"5 X 1000\n", "command must be R or W"},
             // A non-hex address, a gap past 32 bits, a negative gap,
             // and an address with trailing junk.
             Bad{"5 R zz\n", "address \"zz\" is not a hex number"},
             Bad{"4294967297 W 1000x\n", "gap \"4294967297\""},
             Bad{"-1 R 40\n", "gap \"-1\""},
             Bad{"4294967295 W 1000x\n", "address \"1000x\""},
         }) {
        std::istringstream bad(b.line);
        EXPECT_EXIT(parseTrace(bad), ::testing::ExitedWithCode(1),
                    b.diagnostic)
            << b.line;
    }
}
