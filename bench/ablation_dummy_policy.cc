/**
 * @file
 * Ablation of Section 3.3's dummy-address design choices: random
 * address, original address, and the paper's chosen fixed address
 * (which enables dropping dummies at the memory). Reports execution
 * time, PCM cell writes (wear) and array energy for each policy.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace obfusmem;
using namespace obfusmem::bench;

int
main()
{
    bench::Session session("ablation_dummy_policy");
    printHeader("Ablation (Sec 3.3): dummy-address policy");

    const char *benchmarks[] = {"bwaves", "milc", "lbm", "soplex"};

    std::printf("%-10s %-9s %11s %12s %14s %12s\n", "Benchmark",
                "Policy", "Overhead%", "CellWrites", "EnergyPj",
                "DummyPCM");
    std::printf("%.*s\n", 72,
                "----------------------------------------------------"
                "--------------------");

    const DummyPolicy policies[] = {DummyPolicy::Fixed,
                                    DummyPolicy::Original,
                                    DummyPolicy::Random};
    struct Row
    {
        RunOutcome out;
        double dummyPcm = 0;
    };
    std::vector<SystemConfig> cfgs;
    for (const char *name : benchmarks) {
        cfgs.push_back(makeConfig(ProtectionMode::Unprotected, name));
        for (DummyPolicy policy : policies) {
            SystemConfig cfg =
                makeConfig(ProtectionMode::ObfusMemAuth, name);
            cfg.obfusmem.dummyPolicy = policy;
            cfgs.push_back(cfg);
        }
    }
    const auto rows =
        sweep(cfgs, [](System &sys, const RunOutcome &out) {
            Row row;
            row.out = out;
            if (sys.config().mode != ProtectionMode::ObfusMemAuth)
                return row;
            for (unsigned c = 0; c < sys.config().channels; ++c) {
                row.dummyPcm += sys.rootStats().scalarValue(
                    "obfusMem" + std::to_string(c)
                    + ".dummyPcmAccesses");
            }
            return row;
        });

    size_t at = 0;
    for (const char *name : benchmarks) {
        Tick base = rows[at++].out.result.execTicks;
        for (DummyPolicy policy : policies) {
            const Row &row = rows[at++];
            const System::RunResult &r = row.out.result;
            const char *policy_name =
                policy == DummyPolicy::Fixed
                    ? "fixed"
                    : policy == DummyPolicy::Original ? "original"
                                                      : "random";
            double pct = overheadPct(r.execTicks, base);
            std::printf("%-10s %-9s %11.1f %12llu %14.0f %12.0f\n",
                        name, policy_name, pct,
                        static_cast<unsigned long long>(r.cellWrites),
                        r.pcmEnergyPj, row.dummyPcm);
            jsonRow("ablation_dummy_policy",
                    std::string("dummy_") + policy_name, name,
                    r.execTicks, pct, row.out.wallMs);
        }
    }

    std::printf("\nClaim check (Observation 2): the fixed-address "
                "design drops every dummy at the\nmemory - zero "
                "dummy PCM accesses, no extra wear or energy; the "
                "alternatives pay\nreal row accesses (and 'random' "
                "also destroys row-buffer locality).\n");
    return 0;
}
