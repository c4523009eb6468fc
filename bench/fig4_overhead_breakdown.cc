/**
 * @file
 * Reproduces Figure 4: execution-time overhead of increasing levels
 * of protection, normalized to the unprotected system - memory
 * encryption only, plain ObfusMem, and ObfusMem with authenticated
 * communication.
 *
 * Paper reference averages: 2.2% / 8.3% / 10.9% (Observation 5:
 * roughly a quarter of the overhead is memory encryption, and
 * authentication adds only slightly because it overlaps encryption).
 */

#include <cstdio>
#include <string>

#include "bench_common.hh"

using namespace obfusmem;
using namespace obfusmem::bench;

int
main()
{
    bench::Session session("fig4_overhead_breakdown");
    printHeader("Figure 4: overhead breakdown by protection level");

    std::printf("%-12s %12s %12s %14s\n", "Benchmark", "EncOnly%",
                "ObfusMem%", "ObfusMem+Auth%");
    std::printf("%.*s\n", 54,
                "----------------------------------------------------"
                "--");

    const std::vector<std::string> names = benchmarkNames();
    const ProtectionMode modes[] = {
        ProtectionMode::Unprotected, ProtectionMode::EncryptionOnly,
        ProtectionMode::ObfusMem, ProtectionMode::ObfusMemAuth};
    std::vector<SystemConfig> cfgs;
    for (const std::string &name : names)
        for (ProtectionMode mode : modes)
            cfgs.push_back(makeConfig(mode, name));
    const auto outcomes = sweepOutcomes(cfgs);

    double sum_enc = 0, sum_obfus = 0, sum_auth = 0;
    int n = 0;
    for (size_t i = 0; i < names.size(); ++i) {
        const std::string &name = names[i];
        const RunOutcome *row = &outcomes[4 * i];
        Tick base = row[0].result.execTicks;
        Tick enc = row[1].result.execTicks;
        Tick obfus = row[2].result.execTicks;
        Tick auth = row[3].result.execTicks;

        double enc_pct = overheadPct(enc, base);
        double obfus_pct = overheadPct(obfus, base);
        double auth_pct = overheadPct(auth, base);
        std::printf("%-12s %12.1f %12.1f %14.1f\n", name.c_str(),
                    enc_pct, obfus_pct, auth_pct);
        jsonRow("fig4_overhead_breakdown", "encryption_only", name,
                enc, enc_pct, row[1].wallMs);
        jsonRow("fig4_overhead_breakdown", "obfusmem", name, obfus,
                obfus_pct, row[2].wallMs);
        jsonRow("fig4_overhead_breakdown", "obfusmem_auth", name,
                auth, auth_pct, row[3].wallMs);
        sum_enc += enc_pct;
        sum_obfus += obfus_pct;
        sum_auth += auth_pct;
        ++n;
    }

    std::printf("%.*s\n", 54,
                "----------------------------------------------------"
                "--");
    std::printf("%-12s %12.1f %12.1f %14.1f\n", "Avg", sum_enc / n,
                sum_obfus / n, sum_auth / n);
    std::printf("%-12s %12.1f %12.1f %14.1f   (paper)\n", "", 2.2,
                8.3, 10.9);
    return 0;
}
