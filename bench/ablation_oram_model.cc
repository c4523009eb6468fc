/**
 * @file
 * Ablation: the paper's optimistic fixed-2500ns ORAM model versus the
 * ORAM models that issue every block transfer against the PCM
 * substrate - a detailed Path ORAM (small tree) and the two
 * write-only competitors (Flat ORAM, deterministic stash-free
 * write-only ORAM). The paper notes its latency assumption is
 * optimistic (unlimited bandwidth, unconstrained PCM write power);
 * this bench quantifies how much the device-level costs add, and how
 * far the write-only relaxation undercuts both.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace obfusmem;
using namespace obfusmem::bench;

int
main()
{
    bench::Session session("ablation_oram_model");
    printHeader("Ablation: fixed-latency ORAM model vs detailed "
                "ORAM models (small tree)");

    const char *benchmarks[] = {"milc", "sjeng", "hmmer"};

    std::printf("%-10s %11s %13s %10s %9s %9s %9s %8s\n", "Benchmark",
                "FixedORAM%", "DetailedORAM%", "Blocks/acc",
                "PeakStash", "FlatORAM%", "WoORAM%", "WoBlk/W");
    std::printf("%.*s\n", 86,
                "----------------------------------------------------"
                "----------------------------------");

    struct Row
    {
        RunOutcome out;
        double accesses = 0;
        double physicalTransfers = 0;
        double maxStash = 0;
        double logicalWrites = 0;
        double physicalWrites = 0;
    };
    std::vector<SystemConfig> cfgs;
    for (const char *name : benchmarks) {
        SystemConfig base_cfg =
            makeConfig(ProtectionMode::Unprotected, name);
        base_cfg.instrPerCore =
            std::min<uint64_t>(base_cfg.instrPerCore, 30000);
        cfgs.push_back(base_cfg);

        SystemConfig fixed_cfg = base_cfg;
        fixed_cfg.mode = ProtectionMode::OramFixed;
        cfgs.push_back(fixed_cfg);

        SystemConfig det_cfg = base_cfg;
        det_cfg.mode = ProtectionMode::OramDetailed;
        det_cfg.oramDetailed.oram.levels = 12;
        det_cfg.oramDetailed.oram.stashLimit = 4000;
        // This ablation deliberately undersizes the tree relative to
        // the workload's footprint to expose the stash inflation (the
        // MaxStash column); opt out of the fail-stop default so the
        // overflow is measured rather than aborted on.
        det_cfg.oramDetailed.oram.failOnOverflow = false;
        cfgs.push_back(det_cfg);

        SystemConfig flat_cfg = base_cfg;
        flat_cfg.mode = ProtectionMode::FlatOram;
        cfgs.push_back(flat_cfg);

        SystemConfig wo_cfg = base_cfg;
        wo_cfg.mode = ProtectionMode::WriteOnlyOram;
        cfgs.push_back(wo_cfg);
    }
    const auto rows =
        sweep(cfgs, [](System &sys, const RunOutcome &out) {
            Row row;
            row.out = out;
            const ProtectionMode mode = sys.config().mode;
            if (mode == ProtectionMode::Unprotected
                || mode == ProtectionMode::OramFixed)
                return row;
            // The phased ORAM models share the `oram` counters.
            const statistics::Group &stats = sys.rootStats();
            row.accesses = stats.scalarValue("oram.accesses");
            row.physicalTransfers =
                stats.scalarValue("oram.physicalTransfers");
            row.logicalWrites = stats.scalarValue("oram.logicalWrites");
            row.physicalWrites = stats.scalarValue("oram.physicalWrites");
            // Report the mid-access transient peak, not the
            // post-eviction residue: the transient is what a hardware
            // stash must physically hold.
            if (mode == ProtectionMode::OramDetailed)
                row.maxStash = stats.scalarValue("oram.maxTransientStash");
            return row;
        });

    constexpr size_t kStride = 5;
    int n = 0;
    for (const char *name : benchmarks) {
        const Row *row = &rows[kStride * n];
        Tick base = row[0].out.result.execTicks;
        Tick fixed = row[1].out.result.execTicks;
        const Row &det = row[2];
        const Row &flat = row[3];
        const Row &wo = row[4];

        double blocks_per_access =
            det.accesses ? det.physicalTransfers / det.accesses : 0.0;
        double wo_blocks_per_write =
            wo.logicalWrites ? wo.physicalWrites / wo.logicalWrites
                             : 0.0;

        std::printf("%-10s %11.0f %13.0f %10.1f %9.0f %9.1f %9.1f "
                    "%8.1f\n",
                    name, overheadPct(fixed, base),
                    overheadPct(det.out.result.execTicks, base),
                    blocks_per_access, det.maxStash,
                    overheadPct(flat.out.result.execTicks, base),
                    overheadPct(wo.out.result.execTicks, base),
                    wo_blocks_per_write);
        jsonRow("ablation_oram_model", "oram_detailed", name,
                det.out.result.execTicks,
                overheadPct(det.out.result.execTicks, base),
                det.out.wallMs);
        jsonRow("ablation_oram_model", "flat_oram", name,
                flat.out.result.execTicks,
                overheadPct(flat.out.result.execTicks, base),
                flat.out.wallMs);
        jsonRow("ablation_oram_model", "wo_oram", name,
                wo.out.result.execTicks,
                overheadPct(wo.out.result.execTicks, base),
                wo.out.wallMs);
        ++n;
    }

    std::printf("\nThe detailed Path ORAM (L=12 tree, ~52 blocks per "
                "path each way) already exceeds\nthe fixed 2500 ns "
                "model once real bus/bank contention is paid; the "
                "paper's\nfull-scale L=24 tree would roughly double "
                "the per-access traffic again. The\nwrite-only "
                "relaxation removes the path entirely: Flat ORAM "
                "moves 1 block per\naccess, the deterministic WoORAM "
                "exactly 2 per write - which is why their\noverhead "
                "sits orders of magnitude below the path-based "
                "tree.\n");
    return 0;
}
