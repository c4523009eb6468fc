/**
 * @file
 * obfussim - command-line driver for the ObfusMem simulator.
 *
 * Configure any protection mode, workload, channel count and knob of
 * the paper's design from the command line, run the simulation, and
 * get the result summary plus (optionally) the full gem5-style
 * statistics dump.
 *
 * Examples:
 *   obfussim --mode obfusmem+auth --benchmark mcf --instrs 500000
 *   obfussim --mode oram-fixed --benchmark soplex
 *   obfussim --mode obfusmem+auth --channels 8 --scheme unopt --stats
 *   obfussim --mode obfusmem+auth --dummy-policy original --observer
 *   obfussim --list-benchmarks
 */

#include <climits>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "system/oblivious_backend.hh"
#include "system/system.hh"
#include "util/env.hh"

using namespace obfusmem;

namespace {

void
usage()
{
    std::cout <<
        "usage: obfussim [options]\n"
        "  --mode M           unprotected | encryption-only | obfusmem |\n"
        "                     obfusmem+auth | oram-fixed | oram-detailed |\n"
        "                     flat-oram | wo-oram (any registry name)\n"
        "  --benchmark B      one of Table 1's SPEC names (default milc)\n"
        "  --trace FILE       replay a recorded memory trace instead\n"
        "  --instrs N         instructions per core (default 200000)\n"
        "  --cores N          number of cores (default 4)\n"
        "  --channels N       memory channels: 1/2/4/8 (default 1)\n"
        "  --seed N           simulation seed (default 42)\n"
        "  --scheme S         inter-channel dummies: none | unopt | opt\n"
        "  --dummy-policy P   fixed | original | random\n"
        "  --mac-mode M       and | then (encrypt-and/then-MAC)\n"
        "  --uniform-packets  InvisiMem-style fixed-size packets\n"
        "  --timing-oblivious constant-rate issue (Sec 6.2)\n"
        "  --epoch NS         issue epoch for timing mode (default 60)\n"
        "  --integrity        enable Merkle tree over counters\n"
        "  --boot             derive session keys via the DH boot protocol\n"
        "  --observer         print the attacker-observer analysis\n"
        "  --stats            dump full statistics\n"
        "  --list-benchmarks  print available workloads and exit\n"
        "exit status: 2 on a malformed or out-of-range number\n";
}

[[noreturn]] void
die(const std::string &msg)
{
    std::cerr << "obfussim: " << msg << "\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    SystemConfig cfg;
    cfg.benchmark = "milc";
    cfg.instrPerCore = 200000;
    bool dump_stats = false;
    bool show_observer = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value for " + arg);
            return argv[++i];
        };
        // A numeric option's value: a plain decimal no larger than
        // @p max, or the usage and exit status 2.
        auto next_num = [&](uint64_t max) -> uint64_t {
            const std::string v = next();
            const std::optional<uint64_t> n = env::parseU64(v);
            if (!n || *n > max) {
                std::cerr << "obfussim: bad value for " << arg << ": "
                          << v << "\n";
                usage();
                std::exit(2);
            }
            return *n;
        };

        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list-benchmarks") {
            for (const auto &p : BenchmarkProfile::spec2006()) {
                std::cout << p.name << " (IPC " << p.paperIpc
                          << ", MPKI " << p.paperMpki << ")\n";
            }
            return 0;
        } else if (arg == "--mode") {
            std::string m = next();
            const ObliviousBackendInfo *info = backendInfoByName(m);
            if (!info) {
                std::string names;
                for (const auto &row : allBackendInfos())
                    names += std::string(" ") + row.name;
                die("unknown mode " + m + " (known:" + names + ")");
            }
            cfg.mode = info->mode;
        } else if (arg == "--benchmark") {
            cfg.benchmark = next();
        } else if (arg == "--trace") {
            cfg.traceFile = next();
        } else if (arg == "--instrs") {
            cfg.instrPerCore = next_num(UINT64_MAX);
        } else if (arg == "--cores") {
            cfg.cores = static_cast<unsigned>(next_num(UINT_MAX));
        } else if (arg == "--channels") {
            cfg.channels = static_cast<unsigned>(next_num(UINT_MAX));
        } else if (arg == "--seed") {
            cfg.seed = next_num(UINT64_MAX);
        } else if (arg == "--scheme") {
            std::string s = next();
            if (s == "none")
                cfg.obfusmem.channelScheme = ChannelScheme::None;
            else if (s == "unopt")
                cfg.obfusmem.channelScheme = ChannelScheme::Unopt;
            else if (s == "opt")
                cfg.obfusmem.channelScheme = ChannelScheme::Opt;
            else
                die("unknown scheme " + s);
        } else if (arg == "--dummy-policy") {
            std::string p = next();
            if (p == "fixed")
                cfg.obfusmem.dummyPolicy = DummyPolicy::Fixed;
            else if (p == "original")
                cfg.obfusmem.dummyPolicy = DummyPolicy::Original;
            else if (p == "random")
                cfg.obfusmem.dummyPolicy = DummyPolicy::Random;
            else
                die("unknown dummy policy " + p);
        } else if (arg == "--mac-mode") {
            std::string m = next();
            if (m == "and")
                cfg.obfusmem.mac.mode = MacMode::EncryptAndMac;
            else if (m == "then")
                cfg.obfusmem.mac.mode = MacMode::EncryptThenMac;
            else
                die("unknown MAC mode " + m);
        } else if (arg == "--uniform-packets") {
            cfg.obfusmem.uniformPackets = true;
        } else if (arg == "--timing-oblivious") {
            cfg.obfusmem.timingOblivious = true;
        } else if (arg == "--epoch") {
            cfg.obfusmem.issueEpoch =
                next_num(UINT64_MAX / tickPerNs) * tickPerNs;
        } else if (arg == "--integrity") {
            cfg.encryption.integrity = true;
        } else if (arg == "--boot") {
            cfg.runBootProtocol = true;
        } else if (arg == "--observer") {
            show_observer = true;
        } else if (arg == "--stats") {
            dump_stats = true;
        } else {
            usage();
            die("unknown option " + arg);
        }
    }

    if (cfg.mode == ProtectionMode::OramDetailed) {
        cfg.oramDetailed.oram.levels = 12;
        cfg.oramDetailed.oram.stashLimit = 4000;
    }

    std::cout << "obfussim: mode=" << protectionModeName(cfg.mode)
              << " benchmark=" << cfg.benchmark
              << " cores=" << cfg.cores << " channels=" << cfg.channels
              << " instrs/core=" << cfg.instrPerCore << "\n";

    System system(cfg);
    System::RunResult r = system.run();

    std::cout << "\nresults:\n";
    std::cout << "  execution time : " << r.execMs() << " ms ("
              << r.execTicks << " ticks)\n";
    std::cout << "  IPC per core   : " << r.ipc << "\n";
    std::cout << "  LLC MPKI       : " << r.mpki << "\n";
    std::cout << "  avg gap        : " << r.avgGapNs << " ns\n";
    std::cout << "  bus utilization: " << r.busUtilization * 100
              << " %\n";
    std::cout << "  PCM cell writes: " << r.cellWrites << "\n";
    std::cout << "  PCM energy     : " << r.pcmEnergyPj << " pJ\n";

    if (show_observer && system.auditor()) {
        std::cout << "\nattacker observer:\n";
        for (const char *name :
             {"apparentReads", "apparentWrites", "reusedRequests",
              "hottestAddrCount", "activeBuckets", "soloBuckets"}) {
            std::cout << "  " << name << " : "
                      << static_cast<uint64_t>(
                             system.rootStats().scalarValue(
                                 std::string("auditor.") + name))
                      << "\n";
        }
    }

    if (dump_stats) {
        std::cout << "\n";
        system.dumpStats(std::cout);
    }
    return 0;
}
