/**
 * @file
 * ObfusMem end-to-end tests: functional correctness through the
 * obfuscated channel, the security invariants an attacker-observer
 * can check, dummy-request handling, counter synchronization, and
 * tamper detection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "system/system.hh"

using namespace obfusmem;

namespace {

SystemConfig
smallConfig(ProtectionMode mode)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.benchmark = "milc";
    cfg.instrPerCore = 20000;
    cfg.cores = 2;
    return cfg;
}

DataBlock
patternBlock(uint8_t seed)
{
    DataBlock b;
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<uint8_t>(seed + i * 13);
    return b;
}

/** One of the attacker probe's measures (system.auditor stats). */
double
probe(System &sys, const std::string &name)
{
    return sys.rootStats().scalarValue("auditor." + name);
}

double
requestMessages(System &sys)
{
    return probe(sys, "apparentReads") + probe(sys, "apparentWrites");
}

/**
 * How far the apparent read/write mix deviates from the 1:1 that
 * ObfusMem's read-then-write pairing enforces. 0 = perfect pairs.
 */
double
typeImbalance(System &sys)
{
    const double total = requestMessages(sys);
    if (total == 0)
        return 0.0;
    return std::abs(probe(sys, "apparentReads") / total - 0.5) * 2.0;
}

/** Fraction of request messages whose wire address repeated. */
double
addrReuseFraction(System &sys)
{
    const double total = requestMessages(sys);
    return total ? probe(sys, "reusedRequests") / total : 0.0;
}

/** Bytes on every channel's wires, both directions. */
double
busBytes(System &sys)
{
    double bytes = 0;
    for (unsigned c = 0; c < sys.config().channels; ++c)
        bytes += sys.rootStats().scalarValue("bus" + std::to_string(c)
                                             + ".bytes");
    return bytes;
}

} // namespace

TEST(ObfusMem, StoreFlushReadRoundTrip)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    DataBlock data = patternBlock(0x10);
    bool stored = false;
    sys.timedStore(0, 0x2000, data, [&](Tick) { stored = true; });
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_TRUE(stored);
    EXPECT_EQ(sys.functionalRead(0x2000), data);
}

TEST(ObfusMem, ManyBlocksSurviveFullPath)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    for (uint8_t i = 0; i < 32; ++i) {
        sys.timedStore(i % 2, 0x10000 + i * 64ull, patternBlock(i),
                       [](Tick) {});
    }
    sys.eventQueue().run();
    sys.flushAndDrain();
    for (uint8_t i = 0; i < 32; ++i)
        EXPECT_EQ(sys.functionalRead(0x10000 + i * 64ull),
                  patternBlock(i))
            << unsigned(i);
}

TEST(ObfusMem, MemoryHoldsDoublyUnreadableCiphertext)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    DataBlock data = patternBlock(0x20);
    sys.timedStore(0, 0x3000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_NE(sys.backingStore().read(0x3000), data);
}

TEST(ObfusMem, TimedLoadReturnsAfterRealisticLatency)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    Tick done = 0;
    sys.timedLoad(0, 0x40000000, [&](Tick t) { done = t; });
    sys.eventQueue().run();
    EXPECT_GT(done, 50 * tickPerNs);
    EXPECT_LT(done, 2000 * tickPerNs);
}

TEST(ObfusMem, EveryAccessLooksLikeReadThenWrite)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    System sys(cfg);
    sys.run();

    ASSERT_NE(sys.auditor(), nullptr);
    ASSERT_GT(requestMessages(sys), 100u);
    // The pairing invariant: apparent reads == apparent writes.
    EXPECT_EQ(probe(sys, "apparentReads"), probe(sys, "apparentWrites"));
    EXPECT_LT(typeImbalance(sys), 1e-9);
}

TEST(ObfusMem, UnprotectedBusLeaksRequestTypes)
{
    System sys(smallConfig(ProtectionMode::Unprotected));
    sys.run();
    // Reads outnumber writes on a real memory bus.
    EXPECT_GT(typeImbalance(sys), 0.1);
}

TEST(ObfusMem, WireAddressesNeverRepeat)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    sys.run();
    ASSERT_GT(requestMessages(sys), 100u);
    // Counter-mode header encryption: temporal reuse is invisible.
    EXPECT_LT(addrReuseFraction(sys), 0.01);
    EXPECT_LE(probe(sys, "hottestAddrCount"), 2u);
}

namespace {

/**
 * Drive a temporally-reusing pattern onto the bus: each block is
 * fetched (store miss -> RFO read) and later written back, so the
 * same plaintext address crosses the wires twice.
 */
void
driveReusePattern(System &sys)
{
    for (int i = 0; i < 64; ++i) {
        sys.timedStore(0, 0x20000000 + i * 64ull, patternBlock(i),
                       [](Tick) {});
    }
    sys.eventQueue().run();
    sys.flushAndDrain();
}

} // namespace

TEST(ObfusMem, UnprotectedBusLeaksTemporalReuse)
{
    System sys(smallConfig(ProtectionMode::Unprotected));
    driveReusePattern(sys);
    // Fetch + writeback of a block show the same address twice: an
    // observer can link them (and flushes of the warmed cache repeat
    // the effect at scale).
    EXPECT_GE(probe(sys, "hottestAddrCount"), 2u);
}

TEST(ObfusMem, EncryptionOnlyStillLeaksAccessPattern)
{
    // The paper's core motivation: memory encryption alone does not
    // hide the address stream.
    System sys(smallConfig(ProtectionMode::EncryptionOnly));
    driveReusePattern(sys);
    EXPECT_GE(probe(sys, "hottestAddrCount"), 2u);
}

TEST(ObfusMem, SamePatternInvisibleUnderObfusMem)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    driveReusePattern(sys);
    // Counter-mode header encryption: no wire address repeats
    // (beyond negligible 64-bit collisions).
    EXPECT_LE(probe(sys, "hottestAddrCount"), 1u);
    EXPECT_LT(addrReuseFraction(sys), 1e-6);
}

TEST(ObfusMem, DummiesDroppedAtMemory)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    System sys(cfg);
    sys.run();

    auto &mem_side = sys.memSides()[0];
    auto &ps = *sys.procSide();
    // Every real read pairs with a write: a real buffered write when
    // one substitutes, a droppable dummy otherwise; every real write
    // is preceded by a dummy read. Fixed dummies never touch PCM.
    EXPECT_EQ(mem_side->stats().scalarValue("dummyWritesDropped"),
              ps.stats().scalarValue("realReads")
                  - ps.stats().scalarValue("pairSubstitutions"));
    EXPECT_EQ(mem_side->stats().scalarValue("dummyReadsAnswered"),
              ps.stats().scalarValue("realWrites")
                  + ps.stats().scalarValue("channelFillGroups"));
    EXPECT_EQ(mem_side->stats().scalarValue("dummyPcmAccesses"), 0.0);
}

TEST(ObfusMem, NoWriteAmplification)
{
    // Zero extra PCM writes versus the unprotected system running
    // the same workload (Table 4: write amplification "None").
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    System protected_sys(cfg);
    auto protected_result = protected_sys.run();

    cfg.mode = ProtectionMode::Unprotected;
    System base_sys(cfg);
    auto base_result = base_sys.run();

    // Identical up to end-of-run row-buffer state (timing changes
    // which dirty rows have been evicted when the run stops); the
    // point is the absence of ORAM's ~100x amplification.
    EXPECT_LT(protected_result.cellWrites,
              base_result.cellWrites * 1.15 + 200);
    EXPECT_GT(protected_result.cellWrites + 200.0,
              base_result.cellWrites * 0.85);
}

TEST(ObfusMem, CountersStaySynchronized)
{
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    sys.run();
    EXPECT_EQ(sys.rootStats().scalarValue("obfusMem0.headerDesyncs"), 0u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusMem0.macFailures"), 0u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.headerDesyncs"), 0u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.macFailures"), 0u);
}

TEST(ObfusMem, DroppedMessageDetectedAsDesync)
{
    // Model an attacker deleting a request: the memory-side counter
    // no longer matches, so every subsequent message fails. Recovery
    // off: this test pins down the legacy fail-stop semantics.
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.recovery.enabled = false;
    System sys(cfg);
    DataBlock data = patternBlock(1);
    sys.timedStore(0, 0x5000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();

    sys.memSides()[0]->skewRequestCounter(6); // one dropped group
    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();
    // The request decrypts to garbage at the memory: no reply, and
    // the incident is counted (DoS, not silent corruption).
    EXPECT_FALSE(completed);
    EXPECT_GE(sys.rootStats().scalarValue("obfusMem0.headerDesyncs")
                  + sys.rootStats().scalarValue("obfusMem0.macFailures"),
              1u);
}

TEST(ObfusMem, ReplayedReplyDetected)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.recovery.enabled = false; // pin fail-stop semantics
    System sys(cfg);
    sys.procSide()->skewResponseCounter(0, 5); // one lost reply
    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();
    EXPECT_FALSE(completed);
    EXPECT_GE(sys.rootStats().scalarValue("obfusProc.headerDesyncs")
                  + sys.rootStats().scalarValue("obfusProc.macFailures"),
              1u);
}

TEST(ObfusMem, PadAccountingMatchesPaperRecipe)
{
    // 6 pads per request group + 5 per reply on each side (Sec. 5.2's
    // energy analysis counts these). The processor side claims 6
    // counters for every group it puts on the wire - real, fill or
    // retransmit - and 5 for every reply it receives. run() drains the
    // memory system, so in a fault-free run every group has had its
    // one reply: a real read's reply completes the requester, any
    // other is discarded. The memory sides answer real and dummy reads
    // alike (dummy policy Fixed), which counts the same replies from
    // the sending end.
    System sys(smallConfig(ProtectionMode::ObfusMemAuth));
    sys.run();
    auto stat = [&sys](const std::string &name) {
        return static_cast<uint64_t>(sys.rootStats().scalarValue(name));
    };
    ASSERT_EQ(stat("obfusProc.headerDesyncs"), 0u);
    ASSERT_EQ(stat("obfusProc.macFailures"), 0u);
    ASSERT_EQ(stat("obfusProc.retransmits"), 0u);

    const uint64_t groups = stat("obfusProc.realReads")
                            + stat("obfusProc.realWrites")
                            + stat("obfusProc.channelFillGroups")
                            + stat("obfusProc.retransmits");
    const uint64_t replies = stat("obfusProc.realReads")
                             + stat("obfusProc.repliesDiscarded");
    uint64_t replies_sent = 0;
    for (size_t c = 0; c < sys.memSides().size(); ++c) {
        const std::string side = "obfusMem" + std::to_string(c) + ".";
        replies_sent += stat(side + "realReads")
                        + stat(side + "dummyReadsAnswered");
    }
    EXPECT_GT(groups, 0u);
    EXPECT_EQ(replies, groups);
    EXPECT_EQ(replies_sent, replies);
    EXPECT_EQ(stat("obfusProc.padsUsed"),
              groups * countersPerRequestGroup
                  + replies * countersPerReply);
}

TEST(ObfusMem, BootProtocolKeysWork)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.runBootProtocol = true;
    System sys(cfg);
    DataBlock data = patternBlock(0x42);
    sys.timedStore(0, 0x7000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_EQ(sys.functionalRead(0x7000), data);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusMem0.headerDesyncs"), 0u);
}

TEST(ObfusMem, AuthCostsMoreThanNoAuth)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMem);
    cfg.instrPerCore = 50000;
    System no_auth(cfg);
    auto r1 = no_auth.run();

    cfg.mode = ProtectionMode::ObfusMemAuth;
    System with_auth(cfg);
    auto r2 = with_auth.run();
    EXPECT_GE(r2.execTicks, r1.execTicks);
}

class DummyPolicySweep
    : public ::testing::TestWithParam<DummyPolicy>
{
};

TEST_P(DummyPolicySweep, FunctionalUnderAllPolicies)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.dummyPolicy = GetParam();
    System sys(cfg);
    DataBlock data = patternBlock(0x33);
    sys.timedStore(0, 0x9000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_EQ(sys.functionalRead(0x9000), data);

    // And a short workload still completes with synchronized state.
    auto result = sys.run();
    EXPECT_GT(result.instructions, 0u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusMem0.headerDesyncs"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, DummyPolicySweep,
                         ::testing::Values(DummyPolicy::Fixed,
                                           DummyPolicy::Original,
                                           DummyPolicy::Random));

TEST(ObfusMem, NonFixedPoliciesCostPcmAccesses)
{
    // Observation 2: only the fixed-address design allows dropping.
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.dummyPolicy = DummyPolicy::Original;
    System sys(cfg);
    sys.run();
    EXPECT_GT(
        sys.memSides()[0]->stats().scalarValue("dummyPcmAccesses"),
        0.0);
}

TEST(ObfusMem, OriginalPolicyAmplifiesWrites)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.dummyPolicy = DummyPolicy::Fixed;
    System fixed(cfg);
    auto fixed_result = fixed.run();

    cfg.obfusmem.dummyPolicy = DummyPolicy::Original;
    System original(cfg);
    auto original_result = original.run();

    EXPECT_GT(original_result.cellWrites, fixed_result.cellWrites);
}

TEST(ObfusMem, UniformPacketsFunctional)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.uniformPackets = true;
    System sys(cfg);
    DataBlock data = patternBlock(0x61);
    sys.timedStore(0, 0xa000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_EQ(sys.functionalRead(0xa000), data);

    auto r = sys.run();
    EXPECT_GT(r.instructions, 0u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusMem0.headerDesyncs"), 0u);
}

TEST(ObfusMem, UniformPacketsHideTypesBySize)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.uniformPackets = true;
    System sys(cfg);
    sys.run();
    ASSERT_GT(requestMessages(sys), 100u);
    // Every request message carries a payload: sizes are uniform, so
    // the observer's size-based classifier sees only "writes".
    EXPECT_EQ(probe(sys, "apparentReads"), 0u);
}

TEST(ObfusMem, SplitSchemeUsesLessBusThanUniform)
{
    // The paper's Sec. 7 claim versus InvisiMem-style packets.
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.instrPerCore = 30000;
    System split(cfg);
    split.run();

    cfg.obfusmem.uniformPackets = true;
    System uniform(cfg);
    uniform.run();
    EXPECT_LT(busBytes(split), busBytes(uniform));
}

TEST(ObfusMem, TimingObliviousFunctional)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.timingOblivious = true;
    System sys(cfg);
    DataBlock data = patternBlock(0x62);
    sys.timedStore(0, 0xb000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_EQ(sys.functionalRead(0xb000), data);
}

// --- Counter-ahead pad prefetch (host-side optimization) ------------

namespace {

struct RecordedRun
{
    /** Every field the wires expose, one line per message. */
    std::string trace;
    /** At-rest ciphertext of hand-stored blocks (the payload bytes). */
    std::vector<DataBlock> ciphertexts;
    Tick execTicks;
};

/** The same workload under an explicit pad-prefetch depth. */
RecordedRun
recordedRun(unsigned prefetch_depth)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.padPrefetchDepth = prefetch_depth;
    cfg.encryption.padMemoEntries = prefetch_depth ? 256 : 0;
    System sys(cfg);
    std::ostringstream trace;
    WireTraceRecorder rec(trace);
    for (auto &bus : sys.channelBuses())
        bus->attachProbe(&rec);

    RecordedRun out;
    out.execTicks = sys.run().execTicks;
    for (uint8_t i = 0; i < 16; ++i) {
        sys.timedStore(0, 0x30000 + i * 64ull, patternBlock(i),
                       [](Tick) {});
    }
    sys.eventQueue().run();
    sys.flushAndDrain();
    for (uint8_t i = 0; i < 16; ++i)
        out.ciphertexts.push_back(
            sys.backingStore().read(0x30000 + i * 64ull));
    out.trace = trace.str();
    return out;
}

} // namespace

TEST(PadPrefetch, WireTrafficBitIdenticalOnVsOff)
{
    // The prefetcher only moves pad generation earlier in host time;
    // pads are pure functions of (key, counter), so every message's
    // timing, size, direction and ciphertext header bits must be
    // byte-for-byte identical with the pipeline on and off — and so
    // must the at-rest ciphertext (the payload bytes that crossed).
    RecordedRun off = recordedRun(0);
    RecordedRun on = recordedRun(8);

    ASSERT_GT(std::count(off.trace.begin(), off.trace.end(), '\n'),
              100);
    EXPECT_EQ(off.trace, on.trace);
    EXPECT_EQ(off.execTicks, on.execTicks);
    EXPECT_EQ(off.ciphertexts, on.ciphertexts);
}

TEST(PadPrefetch, PrefetchedRunStaysFunctional)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.padPrefetchDepth = 8;
    System sys(cfg);
    DataBlock data = patternBlock(0x55);
    sys.timedStore(0, 0xc000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();
    EXPECT_EQ(sys.functionalRead(0xc000), data);

    auto r = sys.run();
    EXPECT_GT(r.instructions, 0u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusMem0.headerDesyncs"), 0u);
    EXPECT_GT(sys.procSide()->stats().scalarValue("padPrefetchHits"),
              0.0);
}

TEST(PadPrefetch, NullStatsPointerIsSafe)
{
    // The prefetcher is usable standalone (tools, future endpoints)
    // without a stats block; every counter touch must be guarded.
    crypto::Aes128::Key key{};
    key[0] = 0x5a;
    crypto::AesCtr ctr(key, 17);
    PadPrefetcher ring;
    ring.configure(ctr, countersPerRequestGroup, 4, nullptr);

    GroupPads direct = genGroupPads(ctr, 0);
    std::array<crypto::Block128, countersPerRequestGroup> out{};
    ring.take(0, out.data());
    EXPECT_EQ(std::memcmp(out.data(), direct.pad.data(),
                          sizeof(out)),
              0);
    if (ring.shouldScheduleRefill())
        ring.refill();
    ring.take(countersPerRequestGroup, out.data()); // ring hit
    ring.invalidate();
    ring.take(5 * countersPerRequestGroup, out.data()); // cold miss
    GroupPads direct2 = genGroupPads(ctr, 5 * countersPerRequestGroup);
    EXPECT_EQ(std::memcmp(out.data(), direct2.pad.data(),
                          sizeof(out)),
              0);
}

TEST(PadPrefetch, CounterSkewStillDetectedWithPrefetchOn)
{
    // The prefetch ring must not mask a desync: skewing the memory-
    // side request counter invalidates staged pads on that side, and
    // the processor's (prefetched) pads now decrypt the attacker-
    // shifted stream to garbage exactly as before.
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.padPrefetchDepth = 8;
    cfg.obfusmem.recovery.enabled = false; // pin fail-stop semantics
    System sys(cfg);
    DataBlock data = patternBlock(2);
    sys.timedStore(0, 0x5000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();

    sys.memSides()[0]->skewRequestCounter(6);
    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();
    EXPECT_FALSE(completed);
    EXPECT_GE(sys.rootStats().scalarValue("obfusMem0.headerDesyncs")
                  + sys.rootStats().scalarValue("obfusMem0.macFailures"),
              1u);
}

TEST(PadPrefetch, ReplySkewStillDetectedWithPrefetchOn)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.padPrefetchDepth = 8;
    cfg.obfusmem.recovery.enabled = false; // pin fail-stop semantics
    System sys(cfg);
    sys.procSide()->skewResponseCounter(0, 5);
    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();
    EXPECT_FALSE(completed);
    EXPECT_GE(sys.rootStats().scalarValue("obfusProc.headerDesyncs")
                  + sys.rootStats().scalarValue("obfusProc.macFailures"),
              1u);
}

TEST(PadPrefetch, AuditorStaysCleanWithPrefetchOn)
{
    // The trace auditor checks the paper's obliviousness invariants
    // from the attacker's vantage point; the prefetch pipeline must
    // be invisible to it.
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.padPrefetchDepth = 8;
    cfg.attachAuditor = true;
    System sys(cfg);
    sys.run();
    ASSERT_NE(sys.auditor(), nullptr);
    EXPECT_TRUE(sys.auditor()->finalize());
    EXPECT_TRUE(sys.auditor()->violations().empty());
}

TEST(PadPrefetch, AuditorStillFlagsTamperWithPrefetchOn)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.padPrefetchDepth = 8;
    cfg.attachAuditor = true;
    System sys(cfg);
    DataBlock data = patternBlock(3);
    sys.timedStore(0, 0x5000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();

    sys.memSides()[0]->skewRequestCounter(6);
    sys.timedLoad(0, 0x40000000, [](Tick) {});
    sys.eventQueue().run();
    sys.auditor()->finalize();
    EXPECT_GE(probe(sys, "violations.endpoint-incident"), 1u);
}

TEST(ObfusMem, TimingObliviousPacesTheWire)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.instrPerCore = 10000;
    cfg.obfusmem.timingOblivious = true;
    cfg.obfusmem.issueEpoch = 80 * tickPerNs;
    System sys(cfg);
    auto r = sys.run();

    // One group (two request messages) per epoch at most; the drain
    // after the cores finish adds a few more epochs.
    uint64_t max_groups =
        sys.eventQueue().curTick() / cfg.obfusmem.issueEpoch + 2;
    EXPECT_LE(requestMessages(sys), 2 * max_groups);

    // Dummies are serviced, never dropped (worst-case timing).
    EXPECT_EQ(
        sys.memSides()[0]->stats().scalarValue("dummyWritesDropped"),
        0.0);

    // And it costs more than plain ObfusMem.
    cfg.obfusmem.timingOblivious = false;
    System plain(cfg);
    EXPECT_GE(r.execTicks, plain.run().execTicks);
}

// --- Wire image pinned to recorded digests ---------------------------

namespace {

/** 64-bit FNV-1a, fed field by field. */
struct Fnv1a
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const uint8_t *p, size_t n)
    {
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    void
    u64(uint64_t v)
    {
        uint8_t b[8];
        crypto::storeLe64(b, v);
        bytes(b, sizeof(b));
    }

    /** A frame in full: header, payload and MAC tag as sent. */
    void
    frame(unsigned channel, const WireMessage &m)
    {
        u64(channel);
        bytes(m.cipherHeader.data(), m.cipherHeader.size());
        u64(m.hasData);
        if (m.hasData)
            bytes(m.cipherData.data(), m.cipherData.size());
        u64(m.hasMac);
        if (m.hasMac)
            bytes(m.mac.data(), m.mac.size());
    }
};

struct WireImage
{
    uint64_t requests = 0, replies = 0, snoops = 0;
    uint64_t requestFrames = 0, replyFrames = 0, snoopCount = 0;
    uint64_t retransmits = 0, rekeys = 0;
};

/** What a bus-snooping attacker records of a run. */
struct SnoopDigest : BusProbe
{
    Fnv1a fnv;
    uint64_t count = 0;

    void
    observe(const BusSnoop &s) override
    {
        fnv.u64(s.when);
        fnv.u64(static_cast<uint64_t>(s.dir));
        fnv.u64(s.bytes);
        fnv.u64(s.wireAddr);
        fnv.u64(s.wireIsWrite);
        fnv.u64(s.channel);
        ++count;
    }
};

/**
 * Digest every request and reply frame of a small obfusmem+auth run
 * at delivery, plus the snooped trace of every channel bus.
 */
WireImage
wireImage(bool uniform, double corrupt_prob = 0)
{
    SystemConfig cfg = smallConfig(ProtectionMode::ObfusMemAuth);
    cfg.channels = 2;
    cfg.seed = 42;
    cfg.obfusmem.uniformPackets = uniform;
    cfg.faults.seed = 11;
    cfg.faults.corruptProb = corrupt_prob;
    // One retry before a re-key, so corrupted frames reach the DH
    // handshake and its control-plane frames as well.
    cfg.obfusmem.recovery.retryMax = 1;
    System sys(cfg);

    Fnv1a req, rep;
    WireImage out;
    ObfusMemProcSide *proc = sys.procSide();
    for (unsigned c = 0; c < cfg.channels; ++c) {
        ObfusMemMemSide *side = sys.memSides()[c].get();
        proc->setRequestTarget(c,
            [&req, &out, side, c](WireMessage &&msg) {
                req.frame(c, msg);
                ++out.requestFrames;
                side->receiveMessage(std::move(msg));
            });
        side->setReplyTarget([&rep, &out, proc, c](WireMessage &&msg) {
            rep.frame(c, msg);
            ++out.replyFrames;
            proc->receiveReply(c, std::move(msg));
        });
    }
    SnoopDigest snoop;
    for (auto &bus : sys.channelBuses())
        bus->attachProbe(&snoop);
    sys.run();

    out.requests = req.h;
    out.replies = rep.h;
    out.snoops = snoop.fnv.h;
    out.snoopCount = snoop.count;
    out.retransmits = static_cast<uint64_t>(
        sys.rootStats().scalarValue("obfusProc.retransmits"));
    out.rekeys = static_cast<uint64_t>(
        sys.rootStats().scalarValue("obfusProc.rekeysCompleted"));
    return out;
}

void
expectWireImage(const WireImage &got, const WireImage &want)
{
    EXPECT_EQ(got.requestFrames, want.requestFrames);
    EXPECT_EQ(got.replyFrames, want.replyFrames);
    EXPECT_EQ(got.snoopCount, want.snoopCount);
    EXPECT_EQ(got.retransmits, want.retransmits);
    EXPECT_EQ(got.rekeys, want.rekeys);
    EXPECT_EQ(got.requests, want.requests) << std::hex << got.requests;
    EXPECT_EQ(got.replies, want.replies) << std::hex << got.replies;
    EXPECT_EQ(got.snoops, want.snoops) << std::hex << got.snoops;
}

} // namespace

TEST(WireImage, FramesAndSnoopMatchRecordedDigests)
{
    // Endpoint-to-endpoint checks (round trips, auditor, on/off A/B
    // runs) pass when both ends change their bytes alike. These
    // constants pin the bytes themselves; a deliberate model change
    // re-records them and says why.
    {
        SCOPED_TRACE("split scheme");
        WireImage want;
        want.requestFrames = 2320;
        want.replyFrames = 1160;
        want.snoopCount = 3480;
        want.requests = 0xb913328bebd043e1ull;
        want.replies = 0xb4a5299c4bdc7b75ull;
        want.snoops = 0xfa1e593baefa524aull;
        expectWireImage(wireImage(false), want);
    }
    {
        SCOPED_TRACE("uniform scheme");
        WireImage want;
        want.requestFrames = 1046;
        want.replyFrames = 1046;
        want.snoopCount = 2092;
        want.requests = 0xba33102416ad74f8ull;
        want.replies = 0xafb452d05f2bb8eeull;
        want.snoops = 0x856c1310acbe9508ull;
        expectWireImage(wireImage(true), want);
    }
    {
        // Corrupted frames drive retransmits and re-keys, so the
        // recovery and control-plane senders are pinned too.
        SCOPED_TRACE("split scheme, corrupted frames");
        WireImage want;
        want.requestFrames = 2100;
        want.replyFrames = 1017;
        want.snoopCount = 3117;
        want.retransmits = 80;
        want.rekeys = 8;
        want.requests = 0x4afde373a648450full;
        want.replies = 0x62d70bc07ebfa744ull;
        want.snoops = 0x7710d9293dd98491ull;
        expectWireImage(wireImage(false, 0.05), want);
    }
    {
        // The uniform scheme's retransmits and control groups are
        // single data frames; pin them as well.
        SCOPED_TRACE("uniform scheme, corrupted frames");
        WireImage want;
        want.requestFrames = 1127;
        want.replyFrames = 1081;
        want.snoopCount = 2208;
        want.retransmits = 97;
        want.rekeys = 7;
        want.requests = 0x1dea7e68dd605537ull;
        want.replies = 0x60f6aaf9a228974bull;
        want.snoops = 0x84b412b3d68e2f92ull;
        expectWireImage(wireImage(true, 0.05), want);
    }
}
