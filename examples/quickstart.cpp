/**
 * @file
 * Quickstart: build an ObfusMem-protected system, run a memory-heavy
 * workload on it, verify data integrity end to end, and print the
 * headline numbers next to an unprotected baseline.
 *
 * Usage: quickstart [benchmark] [instructions-per-core]
 */

#include <iomanip>
#include <iostream>
#include <optional>
#include <string>

#include "system/system.hh"
#include "util/env.hh"

using namespace obfusmem;

namespace {

System::RunResult
runMode(ProtectionMode mode, const std::string &bench, uint64_t instrs)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.benchmark = bench;
    cfg.instrPerCore = instrs;
    System system(cfg);
    return system.run();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "milc";
    uint64_t instrs = 200 * 1000;
    if (argc > 2) {
        const std::optional<uint64_t> n = env::parseU64(argv[2]);
        if (!n) {
            std::cerr << "usage: quickstart [benchmark] "
                         "[instructions-per-core]\n";
            return 2;
        }
        instrs = *n;
    }

    std::cout << "=== ObfusMem quickstart: " << bench << ", " << instrs
              << " instructions/core, 4 cores ===\n\n";

    // 1. Functional sanity: write through the full encrypted and
    // obfuscated path, flush, and read back.
    {
        SystemConfig cfg;
        cfg.mode = ProtectionMode::ObfusMemAuth;
        cfg.benchmark = bench;
        cfg.runBootProtocol = true; // real DH session establishment
        System system(cfg);

        DataBlock pattern;
        for (size_t i = 0; i < pattern.size(); ++i)
            pattern[i] = static_cast<uint8_t>(i * 7 + 1);

        bool stored = false;
        system.timedStore(0, 0x1000, pattern,
                          [&stored](Tick) { stored = true; });
        system.eventQueue().run();
        system.flushAndDrain();

        DataBlock back = system.functionalRead(0x1000);
        std::cout << "write->flush->read through AES-CTR bus "
                  << "encryption: "
                  << (back == pattern && stored ? "OK" : "MISMATCH")
                  << "\n";

        DataBlock raw = system.backingStore().read(0x1000);
        std::cout << "ciphertext at rest differs from plaintext: "
                  << (raw != pattern ? "OK" : "LEAK") << "\n\n";
    }

    // 2. Performance: unprotected vs full ObfusMem+Auth vs ORAM.
    std::cout << std::left << std::setw(18) << "config"
              << std::right << std::setw(12) << "time(ms)"
              << std::setw(8) << "IPC" << std::setw(10) << "MPKI"
              << std::setw(12) << "overhead\n";

    System::RunResult base =
        runMode(ProtectionMode::Unprotected, bench, instrs);
    auto row = [&base](const char *name,
                       const System::RunResult &r) {
        double overhead =
            100.0 * (static_cast<double>(r.execTicks)
                     / base.execTicks - 1.0);
        std::cout << std::left << std::setw(18) << name << std::right
                  << std::setw(12) << std::fixed
                  << std::setprecision(3) << r.execMs() << std::setw(8)
                  << std::setprecision(2) << r.ipc << std::setw(10)
                  << r.mpki << std::setw(10) << std::setprecision(1)
                  << overhead << "%\n";
    };

    row("unprotected", base);
    row("encryption-only",
        runMode(ProtectionMode::EncryptionOnly, bench, instrs));
    row("obfusmem", runMode(ProtectionMode::ObfusMem, bench, instrs));
    row("obfusmem+auth",
        runMode(ProtectionMode::ObfusMemAuth, bench, instrs));
    row("oram (2500ns)",
        runMode(ProtectionMode::OramFixed, bench, instrs));

    return 0;
}
