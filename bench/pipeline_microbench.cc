/**
 * @file
 * Host-side microbenchmark of the protection hot path: the work the
 * processor-side controller does to put one request group on the wire
 * (six CTR pads, two headers, one 64-byte payload, two MACs).
 *
 * Two legs over identical inputs:
 *  - scalar: the per-message path — single-pad AES calls, scalar MD5
 *    MACs, each frame built to completion before the next
 *    (makeHeaderMessage / makeDataMessage + attachMac);
 *  - batch: the structure-of-arrays pipeline — batched pad
 *    generation (genGroupPads), FrameBatch staging, one
 *    MacEngine::computeBatch across the whole batch (vectorized MD5
 *    lanes), stage-wise sealing.
 *
 * The legs must produce bit-identical frames (verified before
 * timing); the figure of merit is groups/second and the batch/scalar
 * ratio, emitted as a `speedup_x` JSONL row. The run fails (exit 1)
 * when the request-group speedup drops below
 * OBFUSMEM_PIPELINE_MIN_SPEEDUP (default 1.6, 80% of the ~2x the
 * quick preset measures; 0 disables the gate) — this is the CI
 * tripwire for regressions that serialize the batch pipeline back
 * into per-message work, which would bring the ratio to ~1x. The
 * scalar leg's MACs run through the one-block MD5 kernel, so the
 * ratio measures the batch pipeline against a fast per-message path.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hh"
#include "crypto/ctr_mode.hh"
#include "obfusmem/mac_engine.hh"
#include "obfusmem/wire_format.hh"

using namespace obfusmem;
using namespace obfusmem::bench;

namespace {

crypto::Aes128::Key
benchKey()
{
    crypto::Aes128::Key k{};
    for (size_t i = 0; i < k.size(); ++i)
        k[i] = static_cast<uint8_t>(0xa0 + i);
    return k;
}

/** Deterministic per-group request shape (addresses, tag, payload). */
struct GroupShape
{
    WireHeader read;
    WireHeader write;
    DataBlock payload;
};

GroupShape
shapeFor(uint64_t g)
{
    uint64_t r = g * 6364136223846793005ULL + 1442695040888963407ULL;
    GroupShape s;
    s.read.cmd = MemCmd::Read;
    s.read.addr = (r >> 8) & ~uint64_t{63};
    s.read.tag = static_cast<uint16_t>(g);
    s.write.cmd = MemCmd::Write;
    s.write.addr = (r >> 20) & ~uint64_t{63};
    s.write.tag = static_cast<uint16_t>(g + 1);
    s.write.dummy = true;
    for (size_t i = 0; i < s.payload.size(); ++i)
        s.payload[i] = static_cast<uint8_t>(r >> (i % 8 * 8));
    return s;
}

/** Per-message leg: 2 frames per group, everything one at a time. */
void
scalarGroups(const crypto::AesCtr &ctr, const MacEngine &mac,
             uint64_t first, uint64_t count, WireMessage *out)
{
    for (uint64_t g = 0; g < count; ++g) {
        const GroupShape s = shapeFor(first + g);
        const uint64_t base = (first + g) * countersPerRequestGroup;
        crypto::Block128 pads[countersPerRequestGroup];
        for (uint64_t i = 0; i < countersPerRequestGroup; ++i)
            pads[i] = ctr.pad(base + i);
        WireMessage m0 = makeHeaderMessage(pads[0], s.read);
        attachMac(m0, mac.compute(s.read, base));
        WireMessage m1 =
            makeDataMessage(pads[1], &pads[2], s.write, s.payload);
        attachMac(m1, mac.compute(s.write, base + 1));
        out[2 * g] = m0;
        out[2 * g + 1] = m1;
    }
}

/**
 * SoA leg: fill the flush window's pad arena with one widened genPads
 * call (the groups' counters are contiguous), stage every frame, then
 * one MAC batch + one stage-wise seal.
 */
void
batchGroups(const crypto::AesCtr &ctr, const MacEngine &mac,
            FrameBatch &frames, std::vector<crypto::Md5Digest> &macs,
            std::vector<crypto::Block128> &arena, uint64_t first,
            uint64_t count, WireMessage *out)
{
    arena.resize(count * countersPerRequestGroup);
    ctr.genPads(first * countersPerRequestGroup, arena.data(),
                arena.size());
    for (uint64_t g = 0; g < count; ++g) {
        const GroupShape s = shapeFor(first + g);
        const uint64_t base = (first + g) * countersPerRequestGroup;
        const crypto::Block128 *pads =
            arena.data() + g * countersPerRequestGroup;
        frames.stageHeaderFrame(pads[0], s.read, base);
        frames.stageDataFrame(pads[1], &pads[2], s.write, s.payload,
                              base + 1);
    }
    const size_t n = frames.size();
    macs.resize(n);
    mac.computeBatch(frames.headers(), frames.macCounters(),
                     macs.data(), n);
    frames.seal(macs.data(), out);
}

bool
sameMessage(const WireMessage &a, const WireMessage &b)
{
    return a.cipherHeader == b.cipherHeader && a.hasData == b.hasData
           && a.cipherData == b.cipherData && a.hasMac == b.hasMac
           && a.mac == b.mac;
}

/** Fold the frames into a checksum so the work cannot be elided. */
uint64_t
foldMessages(const WireMessage *msgs, size_t n)
{
    uint64_t acc = 0;
    for (size_t i = 0; i < n; ++i) {
        acc ^= crypto::loadLe64(msgs[i].cipherHeader.data());
        acc ^= crypto::loadLe64(msgs[i].mac.data());
    }
    return acc;
}

} // namespace

int
main()
{
    bench::Session session("pipeline_microbench");

    const bool quick = env::flag("OBFUSMEM_QUICK");
    const uint64_t groups = quick ? 40 * 1000 : 400 * 1000;
    /** Groups staged per FrameBatch flush (matches a deep burst). */
    const uint64_t groupsPerFlush = 32;

    const crypto::AesCtr ctr(benchKey(), 2);
    const MacEngine mac(MacEngine::Params{});
    FrameBatch frames;
    std::vector<crypto::Md5Digest> macs;
    std::vector<crypto::Block128> arena;
    std::vector<WireMessage> scalarOut(2 * groupsPerFlush);
    std::vector<WireMessage> batchOut(2 * groupsPerFlush);

    // Bit-identity first: timing a pipeline that emits different
    // frames would be meaningless.
    scalarGroups(ctr, mac, 0, groupsPerFlush, scalarOut.data());
    batchGroups(ctr, mac, frames, macs, arena, 0, groupsPerFlush,
                batchOut.data());
    for (uint64_t i = 0; i < 2 * groupsPerFlush; ++i) {
        if (!sameMessage(scalarOut[i], batchOut[i])) {
            std::fprintf(stderr,
                         "FAIL: batch frame %llu differs from the "
                         "scalar frame\n",
                         static_cast<unsigned long long>(i));
            return 1;
        }
    }

    std::printf("\n=== pipeline microbench: request-group hot path "
                "===\n");
    std::printf("(groups: %llu, %llu per flush; OBFUSMEM_QUICK=1 "
                "shrinks)\n\n",
                static_cast<unsigned long long>(groups),
                static_cast<unsigned long long>(groupsPerFlush));

    uint64_t sink = 0;

    // Warm-up (pad memo-free path; both legs touch the same tables).
    scalarGroups(ctr, mac, 0, groupsPerFlush, scalarOut.data());
    batchGroups(ctr, mac, frames, macs, arena, 0, groupsPerFlush,
                batchOut.data());

    // Alternate the legs across repetitions and keep each leg's best
    // wall time. A single timing window per leg lets one scheduler
    // hiccup (this often runs on one-core CI runners) land entirely
    // in one leg and swing the ratio; the per-leg minimum over
    // interleaved windows is the stable estimate of each leg's true
    // cost.
    const int reps = static_cast<int>(
        env::u64("OBFUSMEM_PIPELINE_REPS", 3));
    double scalarMs = 1e300, batchMs = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        for (uint64_t g = 0; g < groups; g += groupsPerFlush) {
            scalarGroups(ctr, mac, g, groupsPerFlush,
                         scalarOut.data());
            sink ^= foldMessages(scalarOut.data(),
                                 2 * groupsPerFlush);
        }
        const auto t1 = std::chrono::steady_clock::now();
        for (uint64_t g = 0; g < groups; g += groupsPerFlush) {
            batchGroups(ctr, mac, frames, macs, arena, g,
                        groupsPerFlush, batchOut.data());
            sink ^= foldMessages(batchOut.data(), 2 * groupsPerFlush);
        }
        const auto t2 = std::chrono::steady_clock::now();
        scalarMs = std::min(
            scalarMs,
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count());
        batchMs = std::min(
            batchMs,
            std::chrono::duration<double, std::milli>(t2 - t1)
                .count());
    }

    // Both legs produce identical frames, so the folds cancel; a
    // nonzero sink means divergence crept in mid-run.
    if (sink != 0) {
        std::fprintf(stderr,
                     "FAIL: leg checksums diverged (0x%llx)\n",
                     static_cast<unsigned long long>(sink));
        return 1;
    }
    const double scalarRate = groups / scalarMs * 1e3;
    const double batchRate = groups / batchMs * 1e3;
    const double speedup = scalarMs / batchMs;

    std::printf("%-8s %12s %14s %12s\n", "leg", "groups", "Mgroups/s",
                "wall ms");
    std::printf("%-8s %12llu %14.2f %12.1f\n", "scalar",
                static_cast<unsigned long long>(groups),
                scalarRate / 1e6, scalarMs);
    std::printf("%-8s %12llu %14.2f %12.1f\n", "batch",
                static_cast<unsigned long long>(groups),
                batchRate / 1e6, batchMs);
    std::printf("\nbatch pipeline speedup: %.2fx\n", speedup);

    jsonSpeedupRow("pipeline_microbench", "batch_vs_scalar",
                   "request-groups", groups, speedup, batchMs);

    const double minSpeedup =
        env::f64("OBFUSMEM_PIPELINE_MIN_SPEEDUP", 1.6);
    if (minSpeedup > 0 && speedup < minSpeedup) {
        std::fprintf(stderr,
                     "FAIL: %.2fx below the %.1fx floor "
                     "(OBFUSMEM_PIPELINE_MIN_SPEEDUP)\n",
                     speedup, minSpeedup);
        return 1;
    }
    return 0;
}
