/**
 * @file
 * Head-to-head: the same memory-intensive workload on Path ORAM
 * (both the paper's fixed-latency model and the detailed
 * device-level model) versus ObfusMem, reporting the paper's
 * headline metrics side by side.
 *
 * Usage: oram_vs_obfusmem [benchmark] [instructions-per-core]
 */

#include <iomanip>
#include <iostream>
#include <optional>

#include "system/system.hh"
#include "util/env.hh"

using namespace obfusmem;

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "soplex";
    uint64_t instrs = 60 * 1000;
    if (argc > 2) {
        const std::optional<uint64_t> n = env::parseU64(argv[2]);
        if (!n) {
            std::cerr << "usage: oram_vs_obfusmem [benchmark] "
                         "[instructions-per-core]\n";
            return 2;
        }
        instrs = *n;
    }

    SystemConfig cfg;
    cfg.benchmark = bench;
    cfg.instrPerCore = instrs;

    std::cout << "Workload: " << bench << ", " << instrs
              << " instructions on each of " << cfg.cores
              << " cores, 8 GB PCM, 1 channel\n\n";

    cfg.mode = ProtectionMode::Unprotected;
    System base(cfg);
    auto base_result = base.run();

    cfg.mode = ProtectionMode::ObfusMemAuth;
    System obfus(cfg);
    auto obfus_result = obfus.run();

    cfg.mode = ProtectionMode::OramFixed;
    System oram(cfg);
    auto oram_result = oram.run();

    auto pct = [&](Tick t) {
        return 100.0
               * (static_cast<double>(t) / base_result.execTicks
                  - 1.0);
    };

    std::cout << std::fixed << std::setprecision(2);
    std::cout << std::left << std::setw(28) << "metric"
              << std::right << std::setw(14) << "unprotected"
              << std::setw(14) << "obfusmem" << std::setw(14)
              << "oram" << "\n";
    std::cout << std::string(70, '-') << "\n";
    std::cout << std::left << std::setw(28) << "execution time (ms)"
              << std::right << std::setw(14) << base_result.execMs()
              << std::setw(14) << obfus_result.execMs()
              << std::setw(14) << oram_result.execMs() << "\n";
    std::cout << std::left << std::setw(28) << "overhead (%)"
              << std::right << std::setw(14) << 0.0 << std::setw(14)
              << pct(obfus_result.execTicks) << std::setw(14)
              << pct(oram_result.execTicks) << "\n";
    std::cout << std::left << std::setw(28) << "IPC per core"
              << std::right << std::setw(14) << base_result.ipc
              << std::setw(14) << obfus_result.ipc << std::setw(14)
              << oram_result.ipc << "\n";
    std::cout << std::left << std::setw(28) << "PCM cell writes"
              << std::right << std::setw(14) << base_result.cellWrites
              << std::setw(14) << obfus_result.cellWrites
              << std::setw(14)
              << (std::to_string(oram.oramFixed()->blocksWritten())
                  + "*")
              << "\n";
    std::cout << "  (*) ORAM writes whole tree paths: "
              << oram.oramFixed()->blocksWritten() << " block writes "
              << "for " << oram.oramFixed()->accessCount()
              << " accesses.\n\n";

    double speedup = static_cast<double>(oram_result.execTicks)
                     / obfus_result.execTicks;
    std::cout << "ObfusMem speedup over ORAM: " << std::setprecision(1)
              << speedup << "x   (paper average: 9.1x, up to 17.1x)\n";

    // A small detailed Path ORAM against the real PCM substrate.
    cfg.mode = ProtectionMode::OramDetailed;
    cfg.instrPerCore = std::min<uint64_t>(instrs, 10000);
    cfg.oramDetailed.oram.levels = 12;
    cfg.oramDetailed.oram.stashLimit = 4000;
    System detailed(cfg);
    auto det = detailed.run();
    cfg.mode = ProtectionMode::Unprotected;
    System small_base(cfg);
    auto small = small_base.run();
    std::cout << "\nDetailed Path ORAM (L=12 tree, device-level "
                 "traffic): "
              << std::setprecision(0)
              << 100.0
                     * (static_cast<double>(det.execTicks)
                            / small.execTicks
                        - 1.0)
              << "% overhead,\n  "
              << detailed.oramDetailed()->blocksTransferred()
              << " bucket-block transfers, max stash "
              << detailed.oramDetailed()->oram().maxStashSize()
              << ", invariant "
              << (detailed.oramDetailed()->oram().checkInvariant()
                      ? "holds"
                      : "VIOLATED")
              << ".\n";
    return 0;
}
