/**
 * @file
 * Trace-auditor tests: the machine-checked obliviousness argument.
 *
 * Both directions matter and both are proven here: the auditor must
 * pass on every obfuscated configuration (no false alarms), and must
 * deterministically flag the unprotected path and injected attacks -
 * a dropped request group, a replayed reply stream, a bit-flipped
 * header, and a duplicated (replayed) request message. The attacker
 * measures the probe keeps as stats are checked on hand-built snoops.
 */

#include <gtest/gtest.h>
#include <sstream>
#include <string>

#include "system/system.hh"

using namespace obfusmem;
using check::Invariant;
using check::TraceAuditor;
using check::Violation;

namespace {

SystemConfig
auditedConfig(ProtectionMode mode)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.benchmark = "milc";
    cfg.instrPerCore = 20000;
    cfg.cores = 2;
    cfg.attachAuditor = true;
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

/** Fetch-then-writeback traffic: the classic reuse leak. */
void
driveReusePattern(System &sys)
{
    for (int i = 0; i < 64; ++i) {
        sys.timedStore(0, 0x20000000 + i * 64ull, patternBlock(
                           static_cast<uint8_t>(i)),
                       [](Tick) {});
    }
    sys.eventQueue().run();
    sys.flushAndDrain();
}

/** One of the probe's measures (system.auditor stats). */
double
probe(System &sys, const std::string &name)
{
    return sys.rootStats().scalarValue("auditor." + name);
}

bool
hasInvariant(System &sys, Invariant inv)
{
    return probe(sys, std::string("violations.") + invariantName(inv))
           > 0;
}

} // namespace

TEST(TraceAuditor, NotAttachedWithoutObserverOrAuditor)
{
    SystemConfig cfg = auditedConfig(ProtectionMode::ObfusMemAuth);
    cfg.attachAuditor = false;
    cfg.attachObserver = false;
    System sys(cfg);
    EXPECT_EQ(sys.auditor(), nullptr);
}

TEST(TraceAuditor, ObserverOnlyWatchesTheWireQuietly)
{
    // attachObserver (the default) puts the probe on the buses only:
    // its wire checks run and its measures fill, but it warns about
    // nothing and hears no endpoint report.
    SystemConfig cfg = auditedConfig(ProtectionMode::Unprotected);
    cfg.attachAuditor = false;
    ::testing::internal::CaptureStderr();
    {
        System sys(cfg);
        driveReusePattern(sys);
        ASSERT_NE(sys.auditor(), nullptr);
        EXPECT_TRUE(hasInvariant(sys, Invariant::PadFreshness));
        EXPECT_GT(probe(sys, "reusedRequests"), 0);
    }
    EXPECT_EQ(::testing::internal::GetCapturedStderr().find(
                  "trace audit"),
              std::string::npos);

    cfg.mode = ProtectionMode::ObfusMemAuth;
    cfg.obfusmem.recovery.enabled = false;
    System sys(cfg);
    sys.memSides()[0]->skewRequestCounter(6); // one dropped group
    sys.timedLoad(0, 0x40000000, [](Tick) {});
    sys.eventQueue().run();
    EXPECT_GE(sys.rootStats().scalarValue("obfusMem0.headerDesyncs")
                  + sys.rootStats().scalarValue("obfusMem0.macFailures"),
              1u);
    EXPECT_FALSE(hasInvariant(sys, Invariant::EndpointIncident));
}

TEST(TraceAuditor, PassesOnObfuscatedRun)
{
    System sys(auditedConfig(ProtectionMode::ObfusMemAuth));
    sys.run();
    TraceAuditor *auditor = sys.auditor();
    ASSERT_NE(auditor, nullptr);
    EXPECT_TRUE(auditor->finalize());
    EXPECT_TRUE(auditor->ok());
    EXPECT_TRUE(auditor->violations().empty());
    EXPECT_GT(probe(sys, "messages"), 100u);
}

TEST(TraceAuditor, PassesWithoutAuthToo)
{
    // Counter discipline and pairing hold with the MAC disabled; only
    // tamper *detection* needs auth.
    System sys(auditedConfig(ProtectionMode::ObfusMem));
    sys.run();
    EXPECT_TRUE(sys.auditor()->finalize());
}

TEST(TraceAuditor, PassesOnUniformPacketScheme)
{
    SystemConfig cfg = auditedConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.uniformPackets = true;
    System sys(cfg);
    sys.run();
    EXPECT_TRUE(sys.auditor()->finalize())
        << "uniform scheme must satisfy its own wire discipline";
}

TEST(TraceAuditor, PassesOnMultiChannelOptScheme)
{
    SystemConfig cfg = auditedConfig(ProtectionMode::ObfusMemAuth);
    cfg.channels = 2;
    System sys(cfg);
    sys.run();
    EXPECT_TRUE(sys.auditor()->finalize());
    // OPT fills idle channels, so solo-channel buckets stay rare.
    EXPECT_LE(probe(sys, "soloBuckets"),
              0.05 * probe(sys, "activeBuckets"));
}

TEST(TraceAuditor, PassesUnderEveryDummyPolicy)
{
    for (DummyPolicy policy : {DummyPolicy::Fixed,
                               DummyPolicy::Original,
                               DummyPolicy::Random}) {
        SystemConfig cfg = auditedConfig(ProtectionMode::ObfusMemAuth);
        cfg.obfusmem.dummyPolicy = policy;
        System sys(cfg);
        sys.run();
        EXPECT_TRUE(sys.auditor()->finalize())
            << "policy " << static_cast<int>(policy);
    }
}

TEST(TraceAuditor, FlagsPlainPathAsLeaky)
{
    System sys(auditedConfig(ProtectionMode::Unprotected));
    driveReusePattern(sys);
    EXPECT_FALSE(sys.auditor()->finalize());
    // Plaintext addresses repeat on the wires and request types are
    // visible: both invariants must fire.
    EXPECT_TRUE(hasInvariant(sys, Invariant::PadFreshness));
    EXPECT_TRUE(hasInvariant(sys, Invariant::ReadThenWritePairing));
}

TEST(TraceAuditor, FlagsEncryptionOnlyAsLeaky)
{
    // The paper's motivation, machine-checked: memory encryption
    // alone does not make the trace oblivious.
    System sys(auditedConfig(ProtectionMode::EncryptionOnly));
    driveReusePattern(sys);
    EXPECT_FALSE(sys.auditor()->finalize());
    EXPECT_TRUE(hasInvariant(sys, Invariant::PadFreshness));
}

TEST(TraceAuditor, ViolationReportCarriesContext)
{
    System sys(auditedConfig(ProtectionMode::Unprotected));
    driveReusePattern(sys);
    TraceAuditor *auditor = sys.auditor();
    auditor->finalize();
    ASSERT_FALSE(auditor->violations().empty());
    const Violation &v = auditor->violations().front();
    std::ostringstream oss;
    oss << v;
    EXPECT_NE(oss.str().find("invariant="), std::string::npos);
    EXPECT_NE(oss.str().find("channel="), std::string::npos);
    EXPECT_FALSE(v.detail.empty());

    std::ostringstream report;
    EXPECT_FALSE(auditor->report(report));
    EXPECT_NE(report.str().find("FAIL"), std::string::npos);
}

TEST(TraceAuditor, DroppedMessageFlagged)
{
    SystemConfig cfg = auditedConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.recovery.enabled = false; // pin fail-stop semantics
    System sys(cfg);
    DataBlock data = patternBlock(1);
    sys.timedStore(0, 0x5000, data, [](Tick) {});
    sys.eventQueue().run();
    sys.flushAndDrain();

    sys.memSides()[0]->skewRequestCounter(6); // one dropped group
    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();

    EXPECT_FALSE(completed);
    EXPECT_FALSE(sys.auditor()->finalize());
    EXPECT_TRUE(hasInvariant(sys, Invariant::EndpointIncident));
    // The endpoints consumed different counter sets: desync is also
    // visible structurally, not just via the rejected message.
    EXPECT_TRUE(hasInvariant(sys, Invariant::CounterSync));
}

TEST(TraceAuditor, ReplayedReplyStreamFlagged)
{
    SystemConfig cfg = auditedConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.recovery.enabled = false; // pin fail-stop semantics
    System sys(cfg);
    sys.procSide()->skewResponseCounter(0, 5); // one lost reply
    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();

    EXPECT_FALSE(completed);
    EXPECT_FALSE(sys.auditor()->finalize());
    EXPECT_TRUE(hasInvariant(sys, Invariant::EndpointIncident));
    EXPECT_TRUE(hasInvariant(sys, Invariant::CounterSync));
}

TEST(TraceAuditor, BitFlippedHeaderFlagged)
{
    System sys(auditedConfig(ProtectionMode::ObfusMemAuth));
    // Man-in-the-middle: flip one ciphertext bit on every request
    // message crossing channel 0.
    ObfusMemMemSide *side = sys.memSides()[0].get();
    sys.procSide()->setRequestTarget(0, [side](WireMessage &&msg) {
        msg.cipherHeader[0] ^= 0x01;
        side->receiveMessage(std::move(msg));
    });

    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();

    EXPECT_FALSE(completed);
    // The memory side must reject the message (MAC mismatch or
    // unparseable header) and the auditor must have the incident.
    EXPECT_GE(sys.rootStats().scalarValue("obfusMem0.macFailures")
                  + sys.rootStats().scalarValue("obfusMem0.headerDesyncs"),
              1u);
    EXPECT_FALSE(sys.auditor()->finalize());
    EXPECT_TRUE(hasInvariant(sys, Invariant::EndpointIncident));
}

TEST(TraceAuditor, ReplayedRequestMessageFlagged)
{
    SystemConfig cfg = auditedConfig(ProtectionMode::ObfusMemAuth);
    cfg.obfusmem.recovery.enabled = false; // pin fail-stop semantics
    System sys(cfg);
    // Man-in-the-middle: deliver every request message twice. The
    // memory side burns pads for the duplicates, so its counters run
    // ahead and the streams diverge.
    ObfusMemMemSide *side = sys.memSides()[0].get();
    sys.procSide()->setRequestTarget(0, [side](WireMessage &&msg) {
        WireMessage replay = msg;
        side->receiveMessage(std::move(msg));
        side->receiveMessage(std::move(replay));
    });

    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();

    EXPECT_FALSE(completed);
    EXPECT_FALSE(sys.auditor()->finalize());
    EXPECT_TRUE(hasInvariant(sys, Invariant::EndpointIncident));
    EXPECT_TRUE(hasInvariant(sys, Invariant::CounterSync));
}

// --- The probe's measures, on hand-built snoops ---------------------

namespace {

/** A probe on @p channels channels with 100-tick buckets. */
struct ProbeFixture
{
    statistics::Group root{"system"};
    TraceAuditor probe;

    explicit ProbeFixture(unsigned channels)
        : probe(params(channels), root)
    {
    }

    static TraceAuditor::Params
    params(unsigned channels)
    {
        TraceAuditor::Params p;
        p.channels = channels;
        p.bucketTicks = 100;
        p.warnOnline = false;
        return p;
    }

    void
    request(Tick when, unsigned channel, uint64_t addr, bool write)
    {
        probe.observe(BusSnoop{when, BusDir::ToMemory, write ? 72u : 8u,
                               addr, write, channel});
    }

    void
    reply(Tick when, unsigned channel, uint64_t addr)
    {
        probe.observe(
            BusSnoop{when, BusDir::ToProcessor, 72, addr, false, channel});
    }

    double
    stat(const std::string &name) const
    {
        return root.scalarValue("auditor." + name);
    }
};

} // namespace

TEST(TraceAuditorProbe, RepeatedAddressCountsOnceAsReused)
{
    ProbeFixture f(2);
    f.request(0, 0, 0xa0, false);
    f.request(10, 0, 0xb0, true);
    f.request(20, 0, 0xa0, false);
    f.request(30, 0, 0xc0, true);
    EXPECT_EQ(f.stat("reusedRequests"), 1);
    EXPECT_EQ(f.stat("hottestAddrCount"), 2);
    EXPECT_EQ(f.stat("distinctAddrs"), 3);
    EXPECT_EQ(f.stat("violations.pad-freshness"), 1);

    // Reuse is per channel: the address is new on channel 1.
    f.request(40, 1, 0xa0, false);
    EXPECT_EQ(f.stat("reusedRequests"), 1);
    EXPECT_EQ(f.stat("hottestAddrCount"), 2);
    EXPECT_EQ(f.stat("distinctAddrs"), 4);
    EXPECT_EQ(f.stat("apparentReads"), 3);
    EXPECT_EQ(f.stat("apparentWrites"), 2);
}

TEST(TraceAuditorProbe, BucketIsSoloUntilASecondChannelJoins)
{
    ProbeFixture f(4);
    f.request(0, 0, 1, false);
    EXPECT_EQ(f.stat("activeBuckets"), 1);
    EXPECT_EQ(f.stat("soloBuckets"), 1);
    // More traffic on the same channel keeps the bucket solo.
    f.request(50, 0, 2, true);
    EXPECT_EQ(f.stat("soloBuckets"), 1);
    // A second channel in the same bucket ends it; a third changes
    // nothing more.
    f.request(60, 1, 3, false);
    EXPECT_EQ(f.stat("activeBuckets"), 1);
    EXPECT_EQ(f.stat("soloBuckets"), 0);
    f.request(70, 2, 4, false);
    EXPECT_EQ(f.stat("soloBuckets"), 0);
    // The next bucket starts solo again.
    f.request(150, 1, 5, true);
    EXPECT_EQ(f.stat("activeBuckets"), 2);
    EXPECT_EQ(f.stat("soloBuckets"), 1);

    // On a single-channel probe no bucket is ever solo.
    ProbeFixture one(1);
    one.request(0, 0, 1, false);
    EXPECT_EQ(one.stat("activeBuckets"), 1);
    EXPECT_EQ(one.stat("soloBuckets"), 0);
}

TEST(TraceAuditorProbe, RepliesChangeNoRequestCount)
{
    ProbeFixture f(2);
    f.request(0, 0, 0xa0, false);
    f.reply(300, 1, 0xa0);
    f.reply(310, 1, 0xd0);
    EXPECT_EQ(f.stat("messages"), 3);
    EXPECT_EQ(f.stat("apparentReads"), 1);
    EXPECT_EQ(f.stat("apparentWrites"), 0);
    EXPECT_EQ(f.stat("reusedRequests"), 0);
    EXPECT_EQ(f.stat("distinctAddrs"), 1);
    EXPECT_EQ(f.stat("hottestAddrCount"), 1);
    // A reply marks no channel busy: bucket 3 never became active.
    EXPECT_EQ(f.stat("activeBuckets"), 1);
    EXPECT_EQ(f.stat("soloBuckets"), 1);
}

TEST(TraceAuditorProbe, ChannelBeyondTheProbeIsIgnored)
{
    ProbeFixture f(2);
    f.request(0, 2, 0xa0, false);
    f.request(10, 7, 0xa0, true);
    f.reply(20, 2, 0xa0);
    for (const char *name :
         {"messages", "apparentReads", "apparentWrites",
          "reusedRequests", "distinctAddrs", "hottestAddrCount",
          "activeBuckets", "soloBuckets"}) {
        EXPECT_EQ(f.stat(name), 0) << name;
    }
}
