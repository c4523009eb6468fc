/**
 * @file
 * The attacker's perspective: run the same workload on an
 * unprotected, an encryption-only, and an ObfusMem-protected system,
 * and print what a passive probe on the memory-channel wires can
 * extract in each case (paper Secs. 2.3 and 6.1).
 */

#include <cmath>
#include <iomanip>
#include <iostream>
#include <string>

#include "system/system.hh"

using namespace obfusmem;

namespace {

void
snoop(ProtectionMode mode)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.benchmark = "milc";
    cfg.instrPerCore = 60 * 1000;
    cfg.channels = 4;
    System sys(cfg);
    sys.run();

    // A victim routine with temporal reuse: fetch-then-writeback of
    // the same blocks puts each address on the wire twice (unless
    // the wire is obfuscated).
    for (int i = 0; i < 32; ++i) {
        DataBlock secret;
        secret.fill(static_cast<uint8_t>(i));
        sys.timedStore(0, 0x30000000 + i * 64ull, secret, [](Tick) {});
    }
    sys.eventQueue().run();
    sys.flushAndDrain();

    // What the probe measured, read by name from its stats group.
    const statistics::Group &stats = sys.rootStats();
    auto probe = [&stats](const char *name) {
        return stats.scalarValue(std::string("auditor.") + name);
    };
    const double reads = probe("apparentReads");
    const double requests = reads + probe("apparentWrites");
    const double reuse =
        requests ? probe("reusedRequests") / requests : 0.0;
    const double hottest = probe("hottestAddrCount");
    const double imbalance =
        requests ? std::abs(reads / requests - 0.5) * 2.0 : 0.0;
    const double active = probe("activeBuckets");
    const double solo = active ? probe("soloBuckets") / active : 0.0;
    double bytes = 0;
    for (unsigned c = 0; c < cfg.channels; ++c)
        bytes += stats.scalarValue("bus" + std::to_string(c) + ".bytes");

    std::cout << "--- " << protectionModeName(mode) << " ---\n";
    std::cout << std::fixed << std::setprecision(3);
    std::cout << "  request messages seen      : "
              << static_cast<uint64_t>(requests) << "\n";
    std::cout << "  distinct wire addresses    : "
              << static_cast<uint64_t>(probe("distinctAddrs")) << "\n";
    std::cout << "  address reuse fraction     : " << reuse
              << (reuse > 0.01 ? "   <- temporal pattern leaks"
                               : "   (no temporal signal)")
              << "\n";
    std::cout << "  hottest address seen       : "
              << static_cast<uint64_t>(hottest) << "x"
              << (hottest > 2 ? "   <- dictionary-attack handle" : "")
              << "\n";
    std::cout << "  read/write imbalance       : " << imbalance
              << (imbalance < 0.01 ? "   (perfect read-then-write pairs)"
                                   : "   <- request types leak")
              << "\n";
    std::cout << "  solo-channel time buckets  : " << solo
              << (solo > 0.03 ? "   <- inter-channel pattern leaks"
                              : "   (channels indistinguishable)")
              << "\n";
    std::cout << "  bytes on the wires         : "
              << static_cast<uint64_t>(bytes) << "\n\n";
}

} // namespace

int
main()
{
    std::cout << "A passive attacker probes all four memory channels "
                 "while milc runs.\n\n";
    snoop(ProtectionMode::Unprotected);
    snoop(ProtectionMode::EncryptionOnly);
    snoop(ProtectionMode::ObfusMemAuth);

    std::cout << "Summary: encryption alone hides data but not the "
                 "access pattern; ObfusMem\nmakes addresses, types, "
                 "reuse and channel activity statistically "
                 "featureless.\n";
    return 0;
}
