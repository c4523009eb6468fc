/**
 * @file
 * obfus_audit - run a workload with the obliviousness trace auditor
 * attached and exit non-zero if any security invariant was violated.
 *
 * This is the CI entry point for the machine-checked security
 * argument: `obfus_audit` must pass on the obfuscated configurations
 * and must FAIL on the plain path and on injected attacks (drop,
 * replay, tamper), proving the auditor actually detects leakage. See
 * `.github/workflows/ci.yml` for the expected-pass/expected-fail
 * matrix.
 */

#include <climits>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "system/system.hh"
#include "util/env.hh"

using namespace obfusmem;

namespace {

void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " [options]\n"
        << "  --mode M          obfusmem-auth (default) | obfusmem |\n"
        << "                    encryption | unprotected\n"
        << "  --channels N      memory channels (default 2)\n"
        << "  --cores N         cores (default 2)\n"
        << "  --instr N         instructions per core (default 20000)\n"
        << "  --benchmark NAME  workload profile (default milc)\n"
        << "  --uniform         uniform-packet wire scheme\n"
        << "  --scheme S        inter-channel scheme: none|unopt|opt\n"
        << "  --inject-drop     drop a request group in flight\n"
        << "  --inject-replay   lose a reply (replayed-stream model)\n"
        << "  --inject-tamper   bit-flip request headers in flight\n"
        << "  --no-recovery     disable the link recovery protocol\n"
        << "  --dump-trace F    write the snooped wire trace to F\n"
        << "  --stats           dump full statistics to stderr\n"
        << "fault injection: OBFUSMEM_FAULT_{SEED,DROP,CORRUPT,DELAY,\n"
        << "  DUP,DELAY_NS} env knobs feed a seeded bus fault "
           "injector\n"
        << "exit status: 0 if every invariant held, 1 otherwise\n";
}

} // namespace

int
main(int argc, char **argv)
{
    SystemConfig cfg;
    cfg.mode = ProtectionMode::ObfusMemAuth;
    cfg.channels = 2;
    cfg.cores = 2;
    cfg.instrPerCore = 20000;
    cfg.benchmark = "milc";
    cfg.attachAuditor = true;

    cfg.faults = FaultInjector::Params::fromEnv();

    bool inject_drop = false;
    bool inject_replay = false;
    bool inject_tamper = false;
    bool dump_stats = false;
    std::string trace_path;

    auto next_arg = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            usage(argv[0]);
            std::exit(2);
        }
        return argv[++i];
    };
    // A numeric option's value: a plain decimal no larger than @p max.
    auto next_num = [&](int &i, uint64_t max) -> uint64_t {
        const char *opt = argv[i];
        const char *v = next_arg(i);
        const std::optional<uint64_t> n = env::parseU64(v);
        if (!n || *n > max) {
            std::cerr << "bad value for " << opt << ": " << v << "\n";
            usage(argv[0]);
            std::exit(2);
        }
        return *n;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--mode") {
            const std::string m = next_arg(i);
            if (m == "obfusmem-auth") {
                cfg.mode = ProtectionMode::ObfusMemAuth;
            } else if (m == "obfusmem") {
                cfg.mode = ProtectionMode::ObfusMem;
            } else if (m == "encryption") {
                cfg.mode = ProtectionMode::EncryptionOnly;
            } else if (m == "unprotected") {
                cfg.mode = ProtectionMode::Unprotected;
            } else {
                std::cerr << "unknown mode: " << m << "\n";
                return 2;
            }
        } else if (arg == "--channels") {
            cfg.channels =
                static_cast<unsigned>(next_num(i, UINT_MAX));
        } else if (arg == "--cores") {
            cfg.cores = static_cast<unsigned>(next_num(i, UINT_MAX));
        } else if (arg == "--instr") {
            cfg.instrPerCore = next_num(i, UINT64_MAX);
        } else if (arg == "--benchmark") {
            cfg.benchmark = next_arg(i);
        } else if (arg == "--uniform") {
            cfg.obfusmem.uniformPackets = true;
        } else if (arg == "--scheme") {
            const std::string s = next_arg(i);
            if (s == "none") {
                cfg.obfusmem.channelScheme = ChannelScheme::None;
            } else if (s == "unopt") {
                cfg.obfusmem.channelScheme = ChannelScheme::Unopt;
            } else if (s == "opt") {
                cfg.obfusmem.channelScheme = ChannelScheme::Opt;
            } else {
                std::cerr << "unknown scheme: " << s << "\n";
                return 2;
            }
        } else if (arg == "--inject-drop") {
            inject_drop = true;
        } else if (arg == "--inject-replay") {
            inject_replay = true;
        } else if (arg == "--inject-tamper") {
            inject_tamper = true;
        } else if (arg == "--no-recovery") {
            cfg.obfusmem.recovery.enabled = false;
        } else if (arg == "--dump-trace") {
            trace_path = next_arg(i);
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage(argv[0]);
            return 2;
        }
    }

    const bool obfus_mode = cfg.mode == ProtectionMode::ObfusMem
                            || cfg.mode == ProtectionMode::ObfusMemAuth;
    if ((inject_drop || inject_replay || inject_tamper)
        && !obfus_mode) {
        std::cerr << "injection requires an obfusmem mode\n";
        return 2;
    }

    System sys(cfg);

    // The attacker's view, one line per snooped message. CI diffs a
    // recovery-on trace against a recovery-off trace of the same
    // faultless run to prove the recovery layer is wire-invisible
    // until a fault actually occurs.
    std::ofstream trace_file;
    std::optional<WireTraceRecorder> recorder;
    if (!trace_path.empty()) {
        trace_file.open(trace_path);
        if (!trace_file) {
            std::cerr << "cannot open trace file: " << trace_path
                      << "\n";
            return 2;
        }
        recorder.emplace(trace_file);
        for (auto &bus : sys.channelBuses())
            bus->attachProbe(&*recorder);
    }

    if (inject_drop) {
        // An attacker deleting one request group: the memory side's
        // counters run ahead and every later message is garbage.
        sys.memSides()[0]->skewRequestCounter(6);
    }
    if (inject_replay) {
        // One reply lost/replayed: the processor decrypts subsequent
        // replies with the wrong pads.
        sys.procSide()->skewResponseCounter(0, 5);
    }
    if (inject_tamper) {
        // Man-in-the-middle on channel 0: flip one ciphertext header
        // bit on every request message.
        ObfusMemMemSide *side = sys.memSides()[0].get();
        sys.procSide()->setRequestTarget(0,
            [side](WireMessage &&msg) {
                msg.cipherHeader[0] ^= 0x01;
                side->receiveMessage(std::move(msg));
            });
    }

    if (inject_drop || inject_replay || inject_tamper) {
        // Drive traffic by hand: an injected fault kills the channel
        // cryptographically, so victim loads never complete and
        // run()'s drain check would (correctly) panic.
        DataBlock block{};
        for (uint64_t i = 0; i < 8; ++i) {
            block[0] = static_cast<uint8_t>(i);
            sys.timedStore(0, 0x40000 + i * 64, block, [](Tick) {});
        }
        sys.eventQueue().run();
        for (uint64_t i = 0; i < 8; ++i)
            sys.timedLoad(0, 0x80000000ull + i * 64, [](Tick) {});
        sys.eventQueue().run();
    } else {
        sys.run();
    }

    check::TraceAuditor *auditor = sys.auditor();
    auditor->finalize();
    if (dump_stats)
        sys.dumpStats(std::cerr);
    std::cout << "mode=" << protectionModeName(cfg.mode)
              << " channels=" << cfg.channels << "\n";
    return auditor->report(std::cout) ? 0 : 1;
}
