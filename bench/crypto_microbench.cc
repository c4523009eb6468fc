/**
 * @file
 * Google-benchmark microbenchmarks of the cryptographic substrate:
 * the functional engines whose synthesized-hardware parameters the
 * timing model uses (AES-CTR pads, MD5 MACs) plus the boot-time
 * public-key operations and a Path ORAM access.
 *
 * A custom main also hand-times the AES implementations against each
 * other and appends the speedups as OBFUSMEM_BENCH_JSON rows: each
 * hardware lane (aesni, vaes) versus the reference path, with
 * the ratio in a dedicated `speedup_x` field (`ticks` carries the
 * blocks processed). Earlier baselines (BENCH_PR4.json) overloaded
 * `overhead_pct` with this ratio; consumers should prefer
 * `speedup_x` and treat the old field as legacy.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "crypto/aes128.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/dh.hh"
#include "crypto/hmac.hh"
#include "crypto/md5.hh"
#include "crypto/rsa.hh"
#include "crypto/sha1.hh"
#include "obfusmem/mac_engine.hh"
#include "oram/path_oram.hh"
#include "util/random.hh"

using namespace obfusmem;
using namespace obfusmem::crypto;

namespace {

Aes128::Key
key()
{
    Aes128::Key k{};
    for (size_t i = 0; i < k.size(); ++i)
        k[i] = static_cast<uint8_t>(i);
    return k;
}

constexpr AesImpl implForArg[] = {AesImpl::Reference, AesImpl::Aesni,
                                  AesImpl::Vaes};

/** True when `impl` can run on this host/build (Skip otherwise). */
bool
implAvailable(AesImpl impl)
{
    switch (impl) {
      case AesImpl::Aesni:
        return Aes128::aesniAvailable();
      case AesImpl::Vaes:
        return Aes128::vaesAvailable();
      default:
        return true;
    }
}

void
BM_AesEncryptBlock(benchmark::State &state)
{
    Aes128 aes(key());
    Block128 block{};
    for (auto _ : state) {
        block = aes.encryptBlock(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesEncryptBlock);

// The implementations side by side: the AES-NI hardware path against
// the byte-oriented structural reference it is pinned to (a lone block
// takes the AES-NI path under VAES too).
void
BM_AesEncryptBlockImpl(benchmark::State &state)
{
    AesImpl impl = implForArg[state.range(0)];
    if (!implAvailable(impl)) {
        state.SkipWithError("impl unavailable on this host/build");
        return;
    }
    Aes128 aes(key());
    aes.setImpl(impl);
    Block128 block{};
    for (auto _ : state) {
        block = aes.encryptBlock(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(state.iterations() * 16);
    state.SetLabel(aesImplName(impl));
}
BENCHMARK(BM_AesEncryptBlockImpl)->Arg(0)->Arg(1);

// Batched pad-sized bursts (48 blocks = one prefetch refill of eight
// 6-pad request groups): where the AES-NI 8-wide pipelining shows.
void
BM_AesEncryptBlocksImpl(benchmark::State &state)
{
    AesImpl impl = implForArg[state.range(0)];
    if (!implAvailable(impl)) {
        state.SkipWithError("impl unavailable on this host/build");
        return;
    }
    Aes128 aes(key());
    aes.setImpl(impl);
    Block128 blocks[48] = {};
    for (auto _ : state) {
        aes.encryptBlocks(blocks, blocks, 48);
        benchmark::DoNotOptimize(blocks);
    }
    state.SetBytesProcessed(state.iterations() * 48 * 16);
    state.SetLabel(aesImplName(impl));
}
BENCHMARK(BM_AesEncryptBlocksImpl)->Arg(0)->Arg(1)->Arg(2);

void
BM_AesCtrPad(benchmark::State &state)
{
    AesCtr ctr(key(), 7);
    uint64_t counter = 0;
    for (auto _ : state) {
        Block128 pad = ctr.pad(counter++);
        benchmark::DoNotOptimize(pad);
    }
    state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesCtrPad);

// Pad generation one counter at a time vs the batched genPads call
// that the wire protocol's request groups (6 pads) and replies (5
// pads) use. Bytes/s is directly comparable between the two.
void
BM_AesCtrPadSingle6(benchmark::State &state)
{
    AesCtr ctr(key(), 7);
    uint64_t counter = 0;
    Block128 pads[6];
    for (auto _ : state) {
        for (int i = 0; i < 6; ++i)
            pads[i] = ctr.pad(counter + i);
        counter += 6;
        benchmark::DoNotOptimize(pads);
    }
    state.SetBytesProcessed(state.iterations() * 6 * 16);
}
BENCHMARK(BM_AesCtrPadSingle6);

void
BM_AesCtrPadBatched6(benchmark::State &state)
{
    AesCtr ctr(key(), 7);
    uint64_t counter = 0;
    Block128 pads[6];
    for (auto _ : state) {
        ctr.genPads(counter, pads, 6);
        counter += 6;
        benchmark::DoNotOptimize(pads);
    }
    state.SetBytesProcessed(state.iterations() * 6 * 16);
}
BENCHMARK(BM_AesCtrPadBatched6);

void
BM_AesCtr64ByteBlock(benchmark::State &state)
{
    AesCtr ctr(key(), 7);
    uint8_t buf[64] = {};
    uint64_t counter = 0;
    for (auto _ : state) {
        ctr.applyKeystream(buf, sizeof(buf), counter);
        counter += 4;
        benchmark::DoNotOptimize(buf);
    }
    state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_AesCtr64ByteBlock);

void
BM_Md5Digest64B(benchmark::State &state)
{
    uint8_t buf[64] = {};
    for (auto _ : state) {
        auto d = Md5::digest(buf, sizeof(buf));
        benchmark::DoNotOptimize(d);
    }
    state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Md5Digest64B);

void
BM_Sha1Digest64B(benchmark::State &state)
{
    uint8_t buf[64] = {};
    for (auto _ : state) {
        auto d = Sha1::digest(buf, sizeof(buf));
        benchmark::DoNotOptimize(d);
    }
    state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Sha1Digest64B);

void
BM_HmacMd5(benchmark::State &state)
{
    uint8_t k[16] = {1, 2, 3};
    uint8_t msg[64] = {};
    for (auto _ : state) {
        auto d = hmacMd5(k, sizeof(k), msg, sizeof(msg));
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_HmacMd5);

void
BM_BusMacComputeVerify(benchmark::State &state)
{
    MacEngine mac(MacEngine::Params{});
    WireHeader hdr;
    hdr.addr = 0xdeadbee0;
    uint64_t ctr = 0;
    for (auto _ : state) {
        auto tag = mac.compute(hdr, ctr);
        bool ok = mac.verify(hdr, ctr, tag);
        benchmark::DoNotOptimize(ok);
        ++ctr;
    }
}
BENCHMARK(BM_BusMacComputeVerify);

void
BM_DhHandshakeTestGroup(benchmark::State &state)
{
    Random rng(1);
    const DhGroup &group = DhGroup::testGroup256();
    for (auto _ : state) {
        DhEndpoint a(group, rng), b(group, rng);
        auto s = a.computeShared(b.publicValue());
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_DhHandshakeTestGroup);

void
BM_DhHandshakeModp2048(benchmark::State &state)
{
    Random rng(2);
    const DhGroup &group = DhGroup::modp2048();
    for (auto _ : state) {
        DhEndpoint a(group, rng), b(group, rng);
        auto s = a.computeShared(b.publicValue());
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_DhHandshakeModp2048);

void
BM_RsaSignVerify256(benchmark::State &state)
{
    Random rng(3);
    RsaKeyPair kp = RsaKeyPair::generate(256, rng);
    uint8_t msg[32] = {};
    for (auto _ : state) {
        auto sig = kp.sign(msg, sizeof(msg));
        bool ok = RsaKeyPair::verify(kp.publicKey(), msg,
                                     sizeof(msg), sig);
        benchmark::DoNotOptimize(ok);
    }
}
BENCHMARK(BM_RsaSignVerify256);

void
BM_PathOramAccess(benchmark::State &state)
{
    PathOram::Params params;
    params.levels = static_cast<unsigned>(state.range(0));
    PathOram oram(params);
    Random rng(4);
    DataBlock d{};
    uint64_t blocks = oram.capacityBlocks();
    for (auto _ : state) {
        oram.write(rng.randUnder(blocks), d);
    }
    state.counters["blocks/access"] =
        static_cast<double>(oram.pathBlocks());
}
BENCHMARK(BM_PathOramAccess)->Arg(10)->Arg(16)->Arg(20);

// --- AES speedup summary (OBFUSMEM_BENCH_JSON) ----------------------

/** Blocks/second of `impl` encrypting `batch`-block bursts. */
double
aesBlocksPerSec(AesImpl impl, size_t batch, uint64_t blocks)
{
    Aes128 aes(key());
    aes.setImpl(impl);
    std::vector<Block128> buf(batch);
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t done = 0; done < blocks; done += batch)
        aes.encryptBlocks(buf.data(), buf.data(), batch);
    const auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(blocks) /
           std::chrono::duration<double>(t1 - t0).count();
}

/**
 * Hand-timed hardware-lane-vs-reference comparison, independent of the
 * Google benchmark harness so the rows land in OBFUSMEM_BENCH_JSON:
 * one row per (lane, shape) with the ratio in `speedup_x`, the blocks
 * processed in `ticks` and the lane leg's wall time in `wall_ms`.
 */
void
emitAesSpeedupRows()
{
    const uint64_t blocks =
        obfusmem::env::flag("OBFUSMEM_QUICK") ? 400 * 1000
                                              : 4 * 1000 * 1000;
    std::printf("\n=== AES implementation speedup (%llu blocks) ===\n",
                static_cast<unsigned long long>(blocks));
    if (!Aes128::aesniAvailable()) {
        std::printf("AES-NI unavailable on this host/build; "
                    "skipping speedup rows\n");
        return;
    }
    struct Shape
    {
        const char *name;
        size_t batch;
    };
    // batch 1 = the single-block acceptance shape; batch 48 = one
    // prefetch refill of eight 6-pad request groups (also enough to
    // fill the 16-block VAES lanes three times over).
    const Shape shapes[] = {{"single-block", 1}, {"batch48", 48}};
    const AesImpl lanes[] = {AesImpl::Aesni, AesImpl::Vaes};
    for (const auto &s : shapes) {
        const double reference =
            aesBlocksPerSec(AesImpl::Reference, s.batch, blocks);
        for (AesImpl lane : lanes) {
            if (!implAvailable(lane))
                continue;
            const double rate = aesBlocksPerSec(lane, s.batch, blocks);
            const double speedup = rate / reference;
            std::printf("%-12s  reference %8.1f Mblk/s   %-6s %8.1f "
                        "Mblk/s   speedup %.2fx\n",
                        s.name, reference / 1e6, aesImplName(lane),
                        rate / 1e6, speedup);
            bench::jsonSpeedupRow(
                "crypto_microbench",
                std::string(aesImplName(lane)) + "_vs_reference", s.name,
                blocks, speedup,
                static_cast<double>(blocks) / rate * 1e3);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Session session("crypto_microbench");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    emitAesSpeedupRows();
    return 0;
}
