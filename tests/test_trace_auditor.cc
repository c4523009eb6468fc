/**
 * @file
 * Trace-auditor tests: the machine-checked obliviousness argument.
 *
 * Both directions matter and both are proven here: the auditor must
 * pass on every obfuscated configuration (no false alarms), and must
 * deterministically flag the unprotected path and injected attacks -
 * a dropped request group, a replayed reply stream, a bit-flipped
 * header, and a duplicated (replayed) request message.
 */

#include <gtest/gtest.h>
#include <sstream>

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

bool
hasInvariant(const TraceAuditor &auditor, Invariant inv)
{
    return auditor.violationCountFor(inv) > 0;
}

} // namespace

TEST(TraceAuditor, NotAttachedByDefault)
{
    SystemConfig cfg = auditedConfig(ProtectionMode::ObfusMemAuth);
    cfg.attachAuditor = false;
    System sys(cfg);
    EXPECT_EQ(sys.auditor(), nullptr);
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
    EXPECT_GT(auditor->messagesAudited(), 100u);
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
    TraceAuditor *auditor = sys.auditor();
    EXPECT_TRUE(auditor->finalize());
    // OPT fills idle channels, so solo-channel buckets stay rare.
    EXPECT_LE(auditor->soloBucketFraction(), 0.05);
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
    TraceAuditor *auditor = sys.auditor();
    EXPECT_FALSE(auditor->finalize());
    // Plaintext addresses repeat on the wires and request types are
    // visible: both invariants must fire.
    EXPECT_TRUE(hasInvariant(*auditor, Invariant::PadFreshness));
    EXPECT_TRUE(
        hasInvariant(*auditor, Invariant::ReadThenWritePairing));
}

TEST(TraceAuditor, FlagsEncryptionOnlyAsLeaky)
{
    // The paper's motivation, machine-checked: memory encryption
    // alone does not make the trace oblivious.
    System sys(auditedConfig(ProtectionMode::EncryptionOnly));
    driveReusePattern(sys);
    EXPECT_FALSE(sys.auditor()->finalize());
    EXPECT_TRUE(
        hasInvariant(*sys.auditor(), Invariant::PadFreshness));
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
    TraceAuditor *auditor = sys.auditor();
    EXPECT_FALSE(auditor->finalize());
    EXPECT_TRUE(
        hasInvariant(*auditor, Invariant::EndpointIncident));
    // The endpoints consumed different counter sets: desync is also
    // visible structurally, not just via the rejected message.
    EXPECT_TRUE(hasInvariant(*auditor, Invariant::CounterSync));
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
    TraceAuditor *auditor = sys.auditor();
    EXPECT_FALSE(auditor->finalize());
    EXPECT_TRUE(
        hasInvariant(*auditor, Invariant::EndpointIncident));
    EXPECT_TRUE(hasInvariant(*auditor, Invariant::CounterSync));
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
    TraceAuditor *auditor = sys.auditor();
    EXPECT_FALSE(auditor->finalize());
    EXPECT_TRUE(
        hasInvariant(*auditor, Invariant::EndpointIncident));
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
    TraceAuditor *auditor = sys.auditor();
    EXPECT_FALSE(auditor->finalize());
    EXPECT_TRUE(
        hasInvariant(*auditor, Invariant::EndpointIncident));
    EXPECT_TRUE(hasInvariant(*auditor, Invariant::CounterSync));
}
