/**
 * @file
 * Ablation: the cost of Bonsai-style Merkle integrity verification
 * over the encryption counters. The paper's performance numbers treat
 * verification as speculative/amortized (Sec. 2.4 cites [43]); this
 * bench measures what the counter-tree traffic would add.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace obfusmem;
using namespace obfusmem::bench;

int
main()
{
    bench::Session session("ablation_integrity");
    printHeader("Ablation: Merkle (BMT) verification traffic on top "
                "of memory encryption");

    const char *benchmarks[] = {"bwaves", "mcf", "milc", "soplex",
                                "hmmer"};

    std::printf("%-12s %12s %14s %12s %12s\n", "Benchmark",
                "EncOnly%", "Enc+Merkle%", "BmtFetches",
                "BmtWrites");
    std::printf("%.*s\n", 66,
                "----------------------------------------------------"
                "--------------");

    struct Row
    {
        RunOutcome out;
        double bmtFetches = 0;
        double bmtWritebacks = 0;
    };
    std::vector<SystemConfig> cfgs;
    for (const char *name : benchmarks) {
        cfgs.push_back(makeConfig(ProtectionMode::Unprotected, name));
        cfgs.push_back(
            makeConfig(ProtectionMode::EncryptionOnly, name));
        SystemConfig cfg =
            makeConfig(ProtectionMode::EncryptionOnly, name);
        cfg.encryption.integrity = true;
        cfgs.push_back(cfg);
    }
    const auto rows =
        sweep(cfgs, [](System &sys, const RunOutcome &out) {
            Row row;
            row.out = out;
            if (sys.config().mode == ProtectionMode::EncryptionOnly) {
                row.bmtFetches = sys.rootStats().scalarValue(
                    "encEngine.bmtFetches");
                row.bmtWritebacks = sys.rootStats().scalarValue(
                    "encEngine.bmtWritebacks");
            }
            return row;
        });

    int n = 0;
    for (const char *name : benchmarks) {
        const Row *row = &rows[3 * n];
        Tick base = row[0].out.result.execTicks;
        Tick enc = row[1].out.result.execTicks;
        const Row &merkle = row[2];
        double merkle_pct =
            overheadPct(merkle.out.result.execTicks, base);

        std::printf("%-12s %12.1f %14.1f %12.0f %12.0f\n", name,
                    overheadPct(enc, base), merkle_pct,
                    merkle.bmtFetches, merkle.bmtWritebacks);
        jsonRow("ablation_integrity", "enc_plus_merkle", name,
                merkle.out.result.execTicks, merkle_pct,
                merkle.out.wallMs);
        ++n;
    }

    std::printf("\nThe Merkle tree's node fetches ride the same "
                "memory path (and are themselves\nobfuscated under "
                "ObfusMem); verification is off the critical path "
                "because fetched\ncounters are used speculatively "
                "while the walk completes.\n");
    return 0;
}
