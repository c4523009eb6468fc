/**
 * @file
 * Datacenter-scale companion to Figure 5: the UNOPT vs OPT
 * inter-channel obfuscation gap when the channel count is scaled into
 * the hundreds by ganging sockets into a multi-tenant rack
 * (system/topology.hh) under the sharded simulation kernel.
 *
 * Per sweep point the rack runs three protection configurations —
 * unprotected (normalization baseline), ObfusMem+Auth UNOPT, and
 * ObfusMem+Auth OPT — and reports the makespan overhead of each
 * scheme. UNOPT pads every request with dummies on every other
 * channel of its socket, so its cost keeps growing with the channel
 * count; OPT's does not (Observation 3/6 at rack scale).
 *
 * Modes:
 *   (default)          channel-count sweep, table + JSONL rows
 *   --trace-out PATH   one small fixed rack; dump wire traces + stats
 *                      to PATH (CI byte-compares across shard counts)
 *   --scaling          one rack at shards=1 then shards=N; reports the
 *                      kernel speedup, gated by the env knob
 *                      OBFUSMEM_DATACENTER_MIN_SPEEDUP (default: off;
 *                      a malformed value exits 2 before any run)
 *
 * Every mode runs on `--shards N` worker shards (default 1, 0 = one
 * per hardware thread). Knobs: OBFUSMEM_DATACENTER_REQS (requests
 * per tenant), OBFUSMEM_QUICK.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>

#include "bench_common.hh"
#include "system/topology.hh"

using namespace obfusmem;
using namespace obfusmem::bench;

namespace {

struct RackShape
{
    unsigned sockets;
    unsigned tenantsPerSocket;
    uint64_t requestsPerTenant;
};

RackShape
shapeFromEnv(bool quick)
{
    RackShape shape;
    shape.sockets = quick ? 2 : 8;
    shape.tenantsPerSocket = quick ? 2 : 4;
    shape.requestsPerTenant = env::u64("OBFUSMEM_DATACENTER_REQS",
                                       quick ? 500 : 40 * 1000);
    return shape;
}

TopologyConfig
makeTopo(const RackShape &shape, unsigned channels,
         ProtectionMode mode, ChannelScheme scheme, unsigned shards)
{
    TopologyConfig tc;
    tc.sockets = shape.sockets;
    tc.channelsPerSocket = channels;
    tc.tenantsPerSocket = shape.tenantsPerSocket;
    tc.mode = mode;
    tc.channelScheme = scheme;
    tc.shards = shards;
    return tc;
}

TenantParams
makeTenant(const RackShape &shape)
{
    TenantParams tp;
    tp.requests = shape.requestsPerTenant;
    return tp;
}

MultiTenantTopology::Result
runRack(const TopologyConfig &tc, const TenantParams &tp)
{
    MultiTenantTopology rack(tc, tp);
    return rack.run();
}

int
traceMode(const std::string &path, unsigned shards)
{
    RackShape shape = shapeFromEnv(true);
    // Four sockets so a --shards 4 leg gets a real four-way split.
    shape.sockets = 4;
    TopologyConfig tc =
        makeTopo(shape, 2, ProtectionMode::ObfusMemAuth,
                 ChannelScheme::Opt, shards);
    tc.recordTraces = true;
    MultiTenantTopology rack(tc, makeTenant(shape));
    MultiTenantTopology::Result res = rack.run();

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 2;
    }
    rack.dumpWireTraces(out);
    out << "=== stats ===\n";
    rack.dumpStats(out);
    std::printf("trace mode: %llu requests, %llu epochs, %llu cross "
                "messages, shards=%u -> %s\n",
                (unsigned long long)res.requestsCompleted,
                (unsigned long long)res.epochs,
                (unsigned long long)res.crossMessages,
                rack.kernel().shards(), path.c_str());
    return 0;
}

int
scalingMode(unsigned shards, std::optional<double> min_speedup)
{
    const bool quick = env::flag("OBFUSMEM_QUICK");
    RackShape shape = shapeFromEnv(quick);
    const unsigned channels = quick ? 4 : 16;
    TenantParams tp = makeTenant(shape);

    TopologyConfig serial =
        makeTopo(shape, channels, ProtectionMode::ObfusMemAuth,
                 ChannelScheme::Opt, 1);
    MultiTenantTopology::Result r1 = runRack(serial, tp);

    TopologyConfig sharded = serial;
    sharded.shards = shards;
    MultiTenantTopology::Result rn = runRack(sharded, tp);

    const double speedup = r1.wallMs / rn.wallMs;
    std::printf("scaling: %u sockets x %u channels, %llu requests\n"
                "  shards=1: %.1f ms   shards=%u: %.1f ms   "
                "speedup %.2fx\n",
                shape.sockets, channels,
                (unsigned long long)r1.requestsCompleted, r1.wallMs,
                shards, rn.wallMs, speedup);
    jsonSpeedupRow("fig5_datacenter",
                   "scaling_shards" + std::to_string(shards),
                   "rack", rn.requestsCompleted, speedup, rn.wallMs);

    if (r1.lastCompletionTick != rn.lastCompletionTick
        || r1.crossMessages != rn.crossMessages) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: shards=1 vs %u results "
                     "differ\n", shards);
        return 1;
    }
    if (min_speedup && speedup < *min_speedup) {
        std::fprintf(stderr, "speedup %.2fx below required %.2fx\n",
                     speedup, *min_speedup);
        return 1;
    }
    return 0;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--quick] [--scaling] [--shards N] "
                 "[--trace-out PATH]\n"
                 "  --shards N  worker shards, 0 = one per hardware "
                 "thread\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Session session("fig5_datacenter");

    // Read the speedup gate before anything runs: a typo must fail
    // at once, not switch the gate off after the whole run.
    std::optional<double> min_speedup;
    if (const char *gate = env::raw("OBFUSMEM_DATACENTER_MIN_SPEEDUP")) {
        min_speedup = env::parseF64(gate);
        if (!min_speedup) {
            std::fprintf(stderr,
                         "OBFUSMEM_DATACENTER_MIN_SPEEDUP=\"%s\" is not "
                         "a plain non-negative decimal number\n",
                         gate);
            return 2;
        }
    }

    unsigned shards = 1;
    std::string trace_path;
    bool scaling = false;
    bool quick = env::flag("OBFUSMEM_QUICK");
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--quick")) {
            quick = true;
        } else if (!std::strcmp(argv[i], "--scaling")) {
            scaling = true;
        } else if (!std::strcmp(argv[i], "--shards")
                   && i + 1 < argc) {
            const std::optional<uint64_t> n = env::parseU64(argv[++i]);
            if (!n)
                return usage(argv[0]);
            shards = env::workers(*n);
        } else if (!std::strcmp(argv[i], "--trace-out")
                   && i + 1 < argc) {
            trace_path = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }

    if (!trace_path.empty())
        return traceMode(trace_path, shards);
    if (scaling)
        return scalingMode(shards, min_speedup);

    RackShape shape = shapeFromEnv(quick);
    std::printf("\n=== Figure 5 at rack scale: %u sockets, %u "
                "tenants/socket, %llu requests/tenant, shards=%u ===\n",
                shape.sockets, shape.tenantsPerSocket,
                (unsigned long long)shape.requestsPerTenant, shards);

    const std::vector<unsigned> channel_counts =
        quick ? std::vector<unsigned>{2, 4}
              : std::vector<unsigned>{4, 16, 64};

    std::printf("\n%-10s %-10s %12s %12s %14s\n", "Channels",
                "(total)", "UNOPT+Auth%", "OPT+Auth%", "cross msgs");
    std::printf("%.*s\n", 62,
                "----------------------------------------------------"
                "----------");

    uint64_t total_requests = 0;
    TenantParams tp = makeTenant(shape);
    for (unsigned channels : channel_counts) {
        MultiTenantTopology::Result base = runRack(
            makeTopo(shape, channels, ProtectionMode::Unprotected,
                     ChannelScheme::None, shards),
            tp);
        MultiTenantTopology::Result unopt = runRack(
            makeTopo(shape, channels, ProtectionMode::ObfusMemAuth,
                     ChannelScheme::Unopt, shards),
            tp);
        MultiTenantTopology::Result opt = runRack(
            makeTopo(shape, channels, ProtectionMode::ObfusMemAuth,
                     ChannelScheme::Opt, shards),
            tp);
        total_requests += base.requestsCompleted
                          + unopt.requestsCompleted
                          + opt.requestsCompleted;

        const double unopt_pct = overheadPct(
            unopt.lastCompletionTick, base.lastCompletionTick);
        const double opt_pct = overheadPct(opt.lastCompletionTick,
                                           base.lastCompletionTick);
        std::printf("%-10u %-10u %12.1f %12.1f %14llu\n", channels,
                    channels * shape.sockets, unopt_pct, opt_pct,
                    (unsigned long long)unopt.crossMessages);

        const std::string suffix = "_ch" + std::to_string(channels)
                                   + "_s"
                                   + std::to_string(shape.sockets);
        jsonRow("fig5_datacenter", "unprotected" + suffix, "rack",
                base.lastCompletionTick, 0.0, base.wallMs);
        jsonRow("fig5_datacenter", "unopt_auth" + suffix, "rack",
                unopt.lastCompletionTick, unopt_pct, unopt.wallMs);
        jsonRow("fig5_datacenter", "opt_auth" + suffix, "rack",
                opt.lastCompletionTick, opt_pct, opt.wallMs);
    }

    std::printf("\ntotal simulated requests: %llu\n"
                "Claim check: OPT <= UNOPT, with the gap growing in "
                "the per-socket channel count.\n",
                (unsigned long long)total_requests);
    return 0;
}
