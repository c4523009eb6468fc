/**
 * @file
 * Cross-backend conformance suite: every ObliviousBackend
 * implementation must (a) return the data written through it, checked
 * against a reference flat store under randomized traffic, (b) keep
 * its structural invariants, (c) checkpoint/restore through the
 * serialize vtable half, and (d) produce bit-identical wire traces
 * whether the bench runner uses 1 or 4 worker threads and whichever
 * event-queue backend is configured. The ORAM backends' checkpoints
 * are also fuzzed with truncations and bit flips.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "runner/sweep.hh"
#include "system/system.hh"
#include "system/topology.hh"
#include "util/random.hh"

using namespace obfusmem;

namespace {

/** Logical test window: block ids [0, kWindowBlocks). */
constexpr uint64_t kWindowBlocks = 256;

SystemConfig
smallConfig(ProtectionMode mode)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.buildCores = false;
    // Small functional geometries so the suite stays fast while the
    // window still fits every structure without aliasing:
    // levels=8 holds ~1022 blocks, the write-only structures 1024.
    cfg.oramDetailed.oram.levels = 8;
    cfg.oramDetailed.oram.stashLimit = 1000;
    cfg.flatOram.oram.capacityBlocks = 1 << 10;
    cfg.writeOnlyOram.oram.capacityBlocks = 1 << 10;
    return cfg;
}

DataBlock
writeTimed(System &sys, uint64_t addr, const DataBlock &data)
{
    MemPacket pkt;
    pkt.cmd = MemCmd::Write;
    pkt.addr = addr;
    pkt.data = data;
    pkt.coreId = -1;
    pkt.issueTick = sys.eventQueue().curTick();
    bool done = false;
    sys.memorySink().access(std::move(pkt),
                            [&done](MemPacket &&) { done = true; });
    sys.eventQueue().run();
    EXPECT_TRUE(done) << "write to " << addr << " never completed";
    return data;
}

DataBlock
readTimed(System &sys, uint64_t addr)
{
    MemPacket pkt;
    pkt.cmd = MemCmd::Read;
    pkt.addr = addr;
    pkt.coreId = -1;
    pkt.issueTick = sys.eventQueue().curTick();
    DataBlock out{};
    bool done = false;
    sys.memorySink().access(std::move(pkt),
                            [&out, &done](MemPacket &&resp) {
                                out = resp.data;
                                done = true;
                            });
    sys.eventQueue().run();
    EXPECT_TRUE(done) << "read of " << addr << " never completed";
    return out;
}

/**
 * A fixed deterministic op sequence (used by the trace-identity
 * tests, where the two runs must issue the same logical traffic).
 */
void
runFixedSequence(System &sys)
{
    Random rng(77);
    for (int op = 0; op < 120; ++op) {
        uint64_t addr =
            rng.randUnder(kWindowBlocks) * blockBytes;
        if (rng.chance(0.5)) {
            DataBlock d;
            rng.fillBytes(d.data(), d.size());
            writeTimed(sys, addr, d);
        } else {
            readTimed(sys, addr);
        }
    }
}

/** Wire trace of the fixed sequence under the given configuration. */
std::string
traceOfFixedSequence(SystemConfig cfg)
{
    System sys(cfg);
    std::ostringstream trace;
    WireTraceRecorder rec(trace);
    for (auto &bus : sys.channelBuses())
        bus->attachProbe(&rec);
    runFixedSequence(sys);
    return trace.str();
}

void
checkStructuralInvariants(System &sys)
{
    EXPECT_TRUE(sys.backend().checkInvariant());
    // The attacker's probe watches every bused backend; only an
    // obfuscated wire owes it a clean trace.
    if (backendInfo(sys.config().mode).obfuscatedWire) {
        ASSERT_NE(sys.auditor(), nullptr);
        EXPECT_TRUE(sys.auditor()->ok());
    }
}

class BackendConformance
    : public ::testing::TestWithParam<ProtectionMode>
{
};

class CheckpointFuzz : public ::testing::TestWithParam<ProtectionMode>
{
};

std::string
modeTestName(const ::testing::TestParamInfo<ProtectionMode> &info)
{
    std::string name = protectionModeName(info.param);
    for (char &c : name) {
        if (c == '-' || c == '+')
            c = '_';
    }
    return name;
}

} // namespace

TEST_P(BackendConformance, RandomizedTrafficMatchesReferenceStore)
{
    System sys(smallConfig(GetParam()));
    Random rng(11);
    std::map<uint64_t, DataBlock> reference;

    for (int op = 0; op < 400; ++op) {
        uint64_t addr =
            rng.randUnder(kWindowBlocks) * blockBytes;
        if (rng.chance(0.5)) {
            DataBlock d;
            rng.fillBytes(d.data(), d.size());
            writeTimed(sys, addr, d);
            reference[addr] = d;
        } else if (reference.count(addr)) {
            ASSERT_EQ(readTimed(sys, addr), reference[addr])
                << "op " << op << " addr " << addr;
        }
    }

    // Everything written is also visible through the functional
    // (untimed, decrypting) path.
    for (const auto &[addr, data] : reference)
        EXPECT_EQ(sys.functionalRead(addr), data)
            << "addr " << addr;

    checkStructuralInvariants(sys);
}

TEST_P(BackendConformance, SerializeRestoreRoundTrip)
{
    SystemConfig cfg = smallConfig(GetParam());
    System a(cfg);
    Random rng(13);
    std::map<uint64_t, DataBlock> reference;
    for (int op = 0; op < 200; ++op) {
        uint64_t addr =
            rng.randUnder(kWindowBlocks) * blockBytes;
        DataBlock d;
        rng.fillBytes(d.data(), d.size());
        writeTimed(a, addr, d);
        reference[addr] = d;
    }

    std::stringstream snap;
    a.serializeBackend(snap);
    System b(cfg);
    ASSERT_TRUE(b.restoreBackend(snap));

    // Backends whose functional state lives in the scheme itself
    // (the ORAM structures) must resolve every block identically
    // after restore. The others keep their data in the backing store
    // (possibly encrypted in place), outside this interface: they
    // restore only their format tag, and checkpointing them means
    // checkpointing the substrate, not the backend.
    if (cfg.mode == ProtectionMode::OramDetailed
        || cfg.mode == ProtectionMode::FlatOram
        || cfg.mode == ProtectionMode::WriteOnlyOram) {
        for (const auto &[addr, data] : reference) {
            auto restored = b.backend().functionalRead(addr);
            ASSERT_TRUE(restored.has_value());
            EXPECT_EQ(*restored, data) << "addr " << addr;
        }
    }

    // The restored system keeps serving timed traffic correctly.
    DataBlock fresh;
    for (size_t i = 0; i < fresh.size(); ++i)
        fresh[i] = static_cast<uint8_t>(0xa5 ^ i);
    writeTimed(b, 3 * blockBytes, fresh);
    EXPECT_EQ(readTimed(b, 3 * blockBytes), fresh);
    checkStructuralInvariants(b);

    // A snapshot from one mode does not restore into another.
    SystemConfig other_cfg = smallConfig(
        GetParam() == ProtectionMode::Unprotected
            ? ProtectionMode::EncryptionOnly
            : ProtectionMode::Unprotected);
    System c(other_cfg);
    std::stringstream snap2;
    a.serializeBackend(snap2);
    EXPECT_FALSE(c.restoreBackend(snap2));
}

TEST_P(BackendConformance, WireTraceIdenticalAcrossEvqBackends)
{
    SystemConfig cfg = smallConfig(GetParam());
    if (!backendInfo(cfg.mode).needsBuses)
        GTEST_SKIP() << "backend models latency without buses";

    cfg.evqImpl = EvqImpl::Wheel;
    std::string wheel = traceOfFixedSequence(cfg);
    cfg.evqImpl = EvqImpl::Heap;
    std::string heap = traceOfFixedSequence(cfg);

    EXPECT_FALSE(wheel.empty());
    EXPECT_EQ(wheel, heap);
}

TEST_P(BackendConformance, WireTraceIdenticalAcrossBenchJobs)
{
    SystemConfig cfg = smallConfig(GetParam());
    if (!backendInfo(cfg.mode).needsBuses)
        GTEST_SKIP() << "backend models latency without buses";

    // The bench runner's parallel map must not perturb simulated
    // behavior: each index builds an isolated System, so the traces
    // are bit-identical whether 1 or 4 worker threads execute them.
    auto run = [&cfg](size_t) { return traceOfFixedSequence(cfg); };
    std::vector<std::string> serial =
        runner::parallelIndexMap(4, 1, run);
    std::vector<std::string> threaded =
        runner::parallelIndexMap(4, 4, run);

    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].empty());
        EXPECT_EQ(serial[i], threaded[i]) << "index " << i;
    }
    EXPECT_EQ(serial[0], serial[3]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BackendConformance,
    ::testing::Values(ProtectionMode::Unprotected,
                      ProtectionMode::EncryptionOnly,
                      ProtectionMode::ObfusMem,
                      ProtectionMode::ObfusMemAuth,
                      ProtectionMode::OramFixed,
                      ProtectionMode::OramDetailed,
                      ProtectionMode::FlatOram,
                      ProtectionMode::WriteOnlyOram),
    modeTestName);

TEST_P(CheckpointFuzz, CorruptedCheckpointsFailCleanly)
{
    // A populated checkpoint, then seeded corruptions of it. Restore
    // may accept or reject a flipped bit, but must never crash or
    // assert (the ASan/UBSan job runs this too), and what it accepts
    // must keep the structural invariants; a truncated stream and a
    // flip in the format tags must always be rejected.
    SystemConfig cfg = smallConfig(GetParam());
    System a(cfg);
    Random rng(17);
    for (int op = 0; op < 200; ++op) {
        DataBlock d;
        rng.fillBytes(d.data(), d.size());
        writeTimed(a, rng.randUnder(kWindowBlocks) * blockBytes, d);
    }
    std::ostringstream os;
    a.serializeBackend(os);
    const std::string snap = os.str();

    System b(cfg);
    auto restore = [&b](const std::string &bytes) {
        std::istringstream is(bytes);
        return b.restoreBackend(is);
    };
    ASSERT_TRUE(restore(snap));

    // Every prefix through the first records, then seeded lengths
    // over the whole stream, down to one byte short.
    std::vector<size_t> lengths;
    for (size_t len = 0; len < 256; ++len)
        lengths.push_back(len);
    for (int i = 0; i < 256; ++i)
        lengths.push_back(rng.randUnder(snap.size()));
    lengths.push_back(snap.size() - 1);
    for (size_t len : lengths) {
        EXPECT_FALSE(restore(snap.substr(0, len)))
            << "truncated to " << len << " of " << snap.size();
    }

    auto flip = [&snap](uint64_t bit) {
        std::string bytes = snap;
        bytes[bit / 8] =
            static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
        return bytes;
    };
    // The backend tag, the mode and the ORAM's own tag and geometry
    // open every stream (32 bytes at least); each is checked exactly.
    for (uint64_t bit = 0; bit < 32 * 8; ++bit)
        EXPECT_FALSE(restore(flip(bit))) << "bit " << bit;
    // A flip that restores must leave a well-formed structure.
    for (int i = 0; i < 512; ++i) {
        const uint64_t bit = rng.randUnder(snap.size() * 8);
        if (restore(flip(bit))) {
            SCOPED_TRACE("restored with bit " + std::to_string(bit)
                         + " flipped");
            checkStructuralInvariants(b);
        }
    }

    // The intact checkpoint still restores over whatever the corrupt
    // ones left behind.
    ASSERT_TRUE(restore(snap));
    checkStructuralInvariants(b);
}

INSTANTIATE_TEST_SUITE_P(
    OramCheckpoints, CheckpointFuzz,
    ::testing::Values(ProtectionMode::OramDetailed,
                      ProtectionMode::FlatOram,
                      ProtectionMode::WriteOnlyOram),
    modeTestName);
