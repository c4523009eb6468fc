/**
 * @file
 * Channel fault-tolerance tests: the seeded fault injector, the
 * bounded-retry/resync/re-key recovery ladder on the ObfusMem
 * channel, quarantine escalation, and the wire-invisibility of the
 * recovery layer on a faultless run. Registered twice in CTest, once
 * per OBFUSMEM_EVQ_IMPL backend.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>

#include "mem/fault_injector.hh"
#include "system/system.hh"
#include "util/env.hh"

using namespace obfusmem;

namespace {

SystemConfig
recoveryConfig()
{
    SystemConfig cfg;
    cfg.mode = ProtectionMode::ObfusMemAuth;
    cfg.benchmark = "milc";
    cfg.instrPerCore = 20000;
    cfg.cores = 2;
    cfg.channels = 1;
    return cfg;
}

/** Re-route channel 0's request path through a manipulator. */
template <typename F>
void
interceptRequests(System &sys, F manipulate)
{
    ObfusMemMemSide *side = sys.memSides()[0].get();
    sys.procSide()->setRequestTarget(0,
        [side, manipulate](WireMessage &&msg) mutable {
            if (manipulate(msg))
                side->receiveMessage(std::move(msg));
        });
}

/** Re-route channel 0's reply path through a manipulator. */
template <typename F>
void
interceptReplies(System &sys, F manipulate)
{
    ObfusMemProcSide *proc = sys.procSide();
    sys.memSides()[0]->setReplyTarget(
        [proc, manipulate](WireMessage &&msg) mutable {
            if (manipulate(msg))
                proc->receiveReply(0, std::move(msg));
        });
}

} // namespace

// --- Fault injector -------------------------------------------------

TEST(FaultInjector, UnconfiguredInjectorIsInert)
{
    FaultInjector::Params p;
    EXPECT_FALSE(p.any());
    FaultInjector inj(p);
    for (int i = 0; i < 1000; ++i) {
        FaultDecision d = inj.decide(0, BusDir::ToMemory);
        EXPECT_FALSE(d.drop || d.corrupt || d.duplicate);
        EXPECT_EQ(d.extraDelay, 0u);
    }
}

TEST(FaultInjector, SameSeedSameFaultPattern)
{
    FaultInjector::Params p;
    p.seed = 1234;
    p.dropProb = 0.05;
    p.corruptProb = 0.05;
    p.delayProb = 0.05;
    p.dupProb = 0.05;
    FaultInjector a(p), b(p);
    for (int i = 0; i < 2000; ++i) {
        FaultDecision da = a.decide(i % 4, BusDir::ToMemory);
        FaultDecision db = b.decide(i % 4, BusDir::ToMemory);
        EXPECT_EQ(da.drop, db.drop);
        EXPECT_EQ(da.corrupt, db.corrupt);
        EXPECT_EQ(da.duplicate, db.duplicate);
        EXPECT_EQ(da.extraDelay, db.extraDelay);
        EXPECT_EQ(da.entropy, db.entropy);
    }
}

TEST(FaultInjector, ConfiguredRatesRoughlyHold)
{
    FaultInjector::Params p;
    p.seed = 99;
    p.dropProb = 0.1;
    FaultInjector inj(p);
    int drops = 0;
    for (int i = 0; i < 10000; ++i)
        drops += inj.decide(0, BusDir::ToProcessor).drop ? 1 : 0;
    EXPECT_GT(drops, 700);
    EXPECT_LT(drops, 1300);
}

// --- Recovery ladder, deterministic single-fault scenarios ----------

TEST(Recovery, WholeGroupLossRecoveredByRetry)
{
    System sys(recoveryConfig());
    // Swallow the first complete request group (both frames of the
    // split scheme); the watchdog must rebuild it at fresh counters.
    unsigned frames = 0;
    interceptRequests(sys, [&frames](WireMessage &) {
        return ++frames > 2;
    });

    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();

    EXPECT_TRUE(completed);
    EXPECT_GE(sys.rootStats().scalarValue("obfusProc.retransmits"), 1u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.quarantines"), 0u);
    EXPECT_FALSE(sys.procSide()->channelQuarantined(0));
}

TEST(Recovery, SingleFrameLossResyncsMemorySide)
{
    System sys(recoveryConfig());
    // Drop only the first frame (the read half): the memory side sees
    // the paired write at an unexpected counter and must scan forward
    // to it instead of wedging.
    unsigned frames = 0;
    interceptRequests(sys, [&frames](WireMessage &) {
        return ++frames != 1;
    });

    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();

    EXPECT_TRUE(completed);
    EXPECT_GE(sys.rootStats().scalarValue("obfusMem0.resyncs"), 1u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.quarantines"), 0u);
}

TEST(Recovery, ReplyLossRecoveredByRetryAndResync)
{
    System sys(recoveryConfig());
    // Swallow the first reply: the processor retries the read, the
    // memory side re-serves it at later response counters, and the
    // processor's reply stream must resync forward onto them.
    unsigned replies = 0;
    interceptReplies(sys, [&replies](WireMessage &) {
        return ++replies != 1;
    });

    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();

    EXPECT_TRUE(completed);
    EXPECT_GE(sys.rootStats().scalarValue("obfusProc.retransmits"), 1u);
    EXPECT_GE(sys.rootStats().scalarValue("obfusProc.resyncs"), 1u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.quarantines"), 0u);
}

TEST(Recovery, CorruptedFrameRecoveredByRetry)
{
    System sys(recoveryConfig());
    // Flip one ciphertext header bit on the first frame only.
    unsigned frames = 0;
    interceptRequests(sys, [&frames](WireMessage &msg) {
        if (++frames == 1)
            msg.cipherHeader[3] ^= 0x40;
        return true;
    });

    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();

    EXPECT_TRUE(completed);
    // The frame is rejected (MAC mismatch or unattributable) and the
    // group is retried; either way the request is eventually served.
    EXPECT_GE(sys.rootStats().scalarValue("obfusMem0.macFailures")
                  + sys.rootStats().scalarValue("obfusMem0.framesDiscarded"),
              1u);
    EXPECT_GE(sys.rootStats().scalarValue("obfusProc.retransmits"), 1u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.quarantines"), 0u);
}

TEST(Recovery, DuplicatedFramesAreDiscardedHarmlessly)
{
    System sys(recoveryConfig());
    // Deliver every request frame twice. Duplicates decrypt garbage
    // at already-consumed counters and the forward-only scan must not
    // move the cursor for them.
    ObfusMemMemSide *side = sys.memSides()[0].get();
    sys.procSide()->setRequestTarget(0, [side](WireMessage &&msg) {
        WireMessage copy = msg;
        side->receiveMessage(std::move(msg));
        side->receiveMessage(std::move(copy));
    });

    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();

    EXPECT_TRUE(completed);
    EXPECT_GE(sys.rootStats().scalarValue("obfusMem0.framesDiscarded"), 1u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusMem0.resyncs"), 0u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.quarantines"), 0u);
}

// --- Re-key and quarantine escalation -------------------------------

TEST(Recovery, PersistentTamperTriggersSuccessfulRekey)
{
    System sys(recoveryConfig());
    // Corrupt every data-plane request frame until the processor
    // gives up on retries and opens a re-key handshake; from then on
    // let traffic through so the handshake (on the always-valid
    // control streams) can complete and the pending reads replay.
    const statistics::Group &stats = sys.rootStats();
    interceptRequests(sys, [&stats](WireMessage &msg) {
        if (stats.scalarValue("obfusProc.rekeysStarted") == 0)
            msg.cipherHeader[0] ^= 0x01;
        return true;
    });

    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();

    EXPECT_TRUE(completed);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.rekeysStarted"), 1u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.rekeysCompleted"), 1u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusMem0.rekeysCompleted"), 1u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.quarantines"), 0u);
    EXPECT_FALSE(sys.procSide()->channelQuarantined(0));
}

TEST(Recovery, UnrecoverableChannelIsQuarantined)
{
    System sys(recoveryConfig());
    // Corrupt every to-memory frame forever: retries fail, every
    // re-key attempt's handshake frames are destroyed too, and after
    // the re-key budget the channel must be taken out of service
    // (with the event queue draining instead of retrying forever).
    interceptRequests(sys, [](WireMessage &msg) {
        msg.cipherHeader[0] ^= 0x01;
        return true;
    });

    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();

    EXPECT_FALSE(completed);
    EXPECT_GE(sys.rootStats().scalarValue("obfusProc.rekeysStarted"), 1u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.rekeysCompleted"), 0u);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.quarantines"), 1u);
    EXPECT_TRUE(sys.procSide()->channelQuarantined(0));

    // The quarantined channel refuses new work without hanging.
    bool late = false;
    sys.timedLoad(0, 0x40000100, [&](Tick) { late = true; });
    sys.eventQueue().run();
    EXPECT_FALSE(late);
}

TEST(Recovery, DisabledRecoveryKeepsFailStopSemantics)
{
    SystemConfig cfg = recoveryConfig();
    cfg.obfusmem.recovery.enabled = false;
    System sys(cfg);
    unsigned frames = 0;
    interceptRequests(sys, [&frames](WireMessage &) {
        return ++frames > 2;
    });

    bool completed = false;
    sys.timedLoad(0, 0x40000000, [&](Tick) { completed = true; });
    sys.eventQueue().run();

    EXPECT_FALSE(completed);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.retransmits"), 0u);
}

// --- Whole-system runs ----------------------------------------------

TEST(Recovery, FaultInjectedRunServicesAllRequestsAndAuditsClean)
{
    SystemConfig cfg = recoveryConfig();
    cfg.channels = 2;
    cfg.attachAuditor = true;
    cfg.faults.seed = 7;
    cfg.faults.dropProb = 1e-3;
    cfg.faults.corruptProb = 1e-3;
    System sys(cfg);
    sys.run(); // run() panics internally if any core fails to finish

    ASSERT_NE(sys.auditor(), nullptr);
    EXPECT_TRUE(sys.auditor()->finalize());
    EXPECT_TRUE(sys.auditor()->violations().empty());
    // The run must actually have exercised recovery, not dodged it.
    EXPECT_GE(sys.rootStats().scalarValue("obfusProc.retransmits")
                  + sys.rootStats().scalarValue("obfusProc.resyncs")
                  + sys.rootStats().scalarValue("obfusMem0.resyncs")
                  + sys.rootStats().scalarValue("obfusMem1.resyncs"),
              1u);
    EXPECT_FALSE(sys.procSide()->channelQuarantined(0));
    EXPECT_FALSE(sys.procSide()->channelQuarantined(1));
}

TEST(Recovery, DuplicateAndDelayFaultsAlsoRecover)
{
    SystemConfig cfg = recoveryConfig();
    cfg.attachAuditor = true;
    cfg.faults.seed = 21;
    cfg.faults.dupProb = 1e-3;
    cfg.faults.delayProb = 1e-3;
    System sys(cfg);
    sys.run();

    ASSERT_NE(sys.auditor(), nullptr);
    EXPECT_TRUE(sys.auditor()->finalize());
    EXPECT_FALSE(sys.procSide()->channelQuarantined(0));
}

TEST(Recovery, UniformSchemeFaultRunRecovers)
{
    SystemConfig cfg = recoveryConfig();
    cfg.obfusmem.uniformPackets = true;
    cfg.attachAuditor = true;
    cfg.faults.seed = 11;
    cfg.faults.dropProb = 1e-3;
    cfg.faults.corruptProb = 1e-3;
    System sys(cfg);
    sys.run();

    ASSERT_NE(sys.auditor(), nullptr);
    EXPECT_TRUE(sys.auditor()->finalize());
    EXPECT_TRUE(sys.auditor()->violations().empty());
    EXPECT_FALSE(sys.procSide()->channelQuarantined(0));
}

TEST(Recovery, ZeroFaultWireTraceIdenticalWithRecoveryOnAndOff)
{
    // The recovery layer must be invisible on the wire until a fault
    // actually occurs: same ticks, same sizes, same ciphertext bits.
    auto run_one = [](bool recovery_on) {
        SystemConfig cfg;
        cfg.mode = ProtectionMode::ObfusMemAuth;
        cfg.benchmark = "milc";
        cfg.instrPerCore = 5000;
        cfg.cores = 2;
        cfg.channels = 2;
        cfg.obfusmem.recovery.enabled = recovery_on;
        System sys(cfg);
        std::ostringstream trace;
        WireTraceRecorder rec(trace);
        for (auto &bus : sys.channelBuses())
            bus->attachProbe(&rec);
        sys.run();
        return trace.str();
    };

    const std::string with = run_one(true);
    const std::string without = run_one(false);
    ASSERT_GT(std::count(with.begin(), with.end(), '\n'), 100);
    EXPECT_EQ(with, without);
}

TEST(Recovery, FaultKnobsReadFromEnvironment)
{
    setenv("OBFUSMEM_FAULT_SEED", "99", 1);
    setenv("OBFUSMEM_FAULT_DROP", "0.25", 1);
    setenv("OBFUSMEM_FAULT_CORRUPT", "0.125", 1);
    setenv("OBFUSMEM_FAULT_DUP", "bogus", 1); // -> default 0
    FaultInjector::Params p = FaultInjector::Params::fromEnv();
    unsetenv("OBFUSMEM_FAULT_SEED");
    unsetenv("OBFUSMEM_FAULT_DROP");
    unsetenv("OBFUSMEM_FAULT_CORRUPT");
    unsetenv("OBFUSMEM_FAULT_DUP");

    EXPECT_EQ(p.seed, 99u);
    EXPECT_DOUBLE_EQ(p.dropProb, 0.25);
    EXPECT_DOUBLE_EQ(p.corruptProb, 0.125);
    EXPECT_DOUBLE_EQ(p.dupProb, 0.0);
    EXPECT_TRUE(p.any());
}

TEST(Recovery, OutOfRangeKnobsKeepTheirDefaults)
{
    // Above its range the ns delay used to wrap once scaled to
    // ticks. It now warns and keeps its default.
    setenv("OBFUSMEM_FAULT_DELAY_NS", "18446744073709552", 1);
    FaultInjector::Params fp = FaultInjector::Params::fromEnv();
    unsetenv("OBFUSMEM_FAULT_DELAY_NS");

    EXPECT_EQ(fp.delayTicks, 100 * tickPerNs);
}
