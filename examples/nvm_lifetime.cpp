/**
 * @file
 * NVM endurance demo: PCM cells tolerate a limited number of writes
 * (paper Sec. 2.3). This example runs a write-heavy workload under
 * ObfusMem and under each dummy-address policy, then projects the
 * memory lifetime from the measured cell-write rates - showing why
 * the paper's fixed-address dummy design matters for NVM, and what
 * ORAM's ~100x write amplification would do.
 */

#include <iomanip>
#include <iostream>

#include "system/system.hh"

using namespace obfusmem;

namespace {

struct Sample
{
    std::string name;
    uint64_t cellWrites;
    uint64_t hotRowWrites;
    double seconds;
};

Sample
measure(const std::string &name, ProtectionMode mode,
        DummyPolicy policy)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.benchmark = "lbm"; // write-heavy streaming
    cfg.instrPerCore = 60 * 1000;
    cfg.obfusmem.dummyPolicy = policy;
    System sys(cfg);
    auto r = sys.run();

    uint64_t hottest = 0;
    for (auto &pcm : sys.pcmControllers())
        hottest = std::max(hottest, pcm->maxRowCellWrites());
    return {name, r.cellWrites, hottest,
            static_cast<double>(r.execTicks) / tickPerSec};
}

} // namespace

int
main()
{
    std::cout << "Write-heavy workload (lbm) on 8 GB PCM; cell "
                 "endurance "
              << std::scientific << std::setprecision(0)
              << PcmParams{}.cellEndurance << " writes.\n\n";

    Sample samples[] = {
        measure("unprotected", ProtectionMode::Unprotected,
                DummyPolicy::Fixed),
        measure("obfusmem (fixed dummy)", ProtectionMode::ObfusMemAuth,
                DummyPolicy::Fixed),
        measure("obfusmem (original-addr)",
                ProtectionMode::ObfusMemAuth, DummyPolicy::Original),
        measure("obfusmem (random-addr)", ProtectionMode::ObfusMemAuth,
                DummyPolicy::Random),
    };

    const double endurance = PcmParams{}.cellEndurance;
    double base_rate = samples[0].cellWrites / samples[0].seconds;

    std::cout << std::left << std::setw(26) << "configuration"
              << std::right << std::setw(12) << "cellWrites"
              << std::setw(12) << "hottestRow" << std::setw(14)
              << "writes/sec" << std::setw(16) << "rel. lifetime"
              << "\n"
              << std::string(80, '-') << "\n";

    for (const Sample &s : samples) {
        double rate = s.cellWrites / s.seconds;
        std::cout << std::left << std::setw(26) << s.name
                  << std::right << std::fixed << std::setprecision(0)
                  << std::setw(12) << s.cellWrites << std::setw(12)
                  << s.hotRowWrites << std::setw(14) << rate
                  << std::setw(15) << std::setprecision(2)
                  << (base_rate / rate) << "x\n";
    }

    // ORAM projection: every access rewrites a full tree path.
    SystemConfig cfg;
    cfg.mode = ProtectionMode::OramFixed;
    cfg.benchmark = "lbm";
    cfg.instrPerCore = 60 * 1000;
    System oram(cfg);
    auto r = oram.run();
    const auto oram_writes = static_cast<uint64_t>(
        oram.rootStats().scalarValue("oram.pathBlocksWritten"));
    double oram_rate = oram_writes
                       / (static_cast<double>(r.execTicks)
                          / tickPerSec);
    std::cout << std::left << std::setw(26) << "path-oram (projected)"
              << std::right << std::setw(12) << oram_writes
              << std::setw(12)
              << "-" << std::fixed << std::setprecision(0)
              << std::setw(14) << oram_rate << std::setw(15)
              << std::setprecision(4) << (base_rate / oram_rate)
              << "x\n\n";

    std::cout << std::setprecision(1)
              << "With perfect wear leveling, unprotected lifetime "
                 "at this rate would be\napproximately "
              << endurance * (8ull << 30) / blockBytes / base_rate
                     / (3600 * 24 * 365)
              << " years; ObfusMem leaves that unchanged, while "
                 "ORAM's path\nevictions divide it by ~"
              << std::setprecision(0) << oram_rate / base_rate
              << ".\n";
    return 0;
}
