/**
 * @file
 * Shared helpers for the reproduction benchmarks: run a configured
 * system, format table rows, and honor the environment knobs
 * OBFUSMEM_BENCH_INSTRS / OBFUSMEM_QUICK (workload size),
 * OBFUSMEM_BENCH_JOBS (parallel sweep width) and
 * OBFUSMEM_BENCH_JSON (machine-readable result rows).
 */

#ifndef OBFUSMEM_BENCH_COMMON_HH
#define OBFUSMEM_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>

#include "crypto/aes128.hh"
#include "crypto/cpu_features.hh"
#include "runner/sweep.hh"
#include "system/system.hh"
#include "util/env.hh"

namespace obfusmem {
namespace bench {

/** Instructions per core for benchmark runs (env-overridable). */
inline uint64_t
instructionsPerCore()
{
    uint64_t def = env::flag("OBFUSMEM_QUICK") ? 40 * 1000 : 150 * 1000;
    return env::u64("OBFUSMEM_BENCH_INSTRS", def);
}

/** Sweep width from OBFUSMEM_BENCH_JOBS (1 = serial, the default). */
inline unsigned
benchJobs()
{
    return runner::jobsFromEnv();
}

/** The 15 benchmark names of Table 1, in the paper's order. */
inline std::vector<std::string>
benchmarkNames()
{
    std::vector<std::string> names;
    for (const auto &p : BenchmarkProfile::spec2006())
        names.push_back(p.name);
    return names;
}

/** Build a config with the paper's defaults for one benchmark. */
inline SystemConfig
makeConfig(ProtectionMode mode, const std::string &benchmark,
           unsigned channels = 1)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.benchmark = benchmark;
    cfg.channels = channels;
    cfg.instrPerCore = instructionsPerCore();
    cfg.attachObserver = false; // keep perf runs lean
    return cfg;
}

/** One sweep point: the simulation result plus host wall time. */
struct RunOutcome
{
    System::RunResult result;
    double wallMs = 0;
};

/**
 * Run every config through the parallel sweep runner and map each
 * finished System through @p extract on the worker thread (that is
 * the only moment the System is still alive, so per-component stats
 * must be pulled there). Results come back in config order and are
 * bit-identical to a serial sweep (see src/runner/sweep.hh).
 *
 * @p extract has signature R(System &, const RunOutcome &).
 */
template <typename Extract>
auto
sweep(const std::vector<SystemConfig> &configs, Extract &&extract)
    -> std::vector<std::decay_t<decltype(extract(
        std::declval<System &>(),
        std::declval<const RunOutcome &>()))>>
{
    return runner::parallelIndexMap(
        configs.size(), benchJobs(), [&](size_t i) {
            auto start = std::chrono::steady_clock::now();
            System system(configs[i]);
            RunOutcome out;
            out.result = system.run();
            out.wallMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            return extract(system, out);
        });
}

/** Sweep that only needs the RunResults (plus wall time). */
inline std::vector<RunOutcome>
sweepOutcomes(const std::vector<SystemConfig> &configs)
{
    return sweep(configs,
                 [](System &, const RunOutcome &out) { return out; });
}

/** Run one configuration to completion (serial, on this thread). */
inline System::RunResult
runConfig(const SystemConfig &cfg)
{
    System system(cfg);
    return system.run();
}

inline System::RunResult
run(ProtectionMode mode, const std::string &benchmark,
    unsigned channels = 1)
{
    return runConfig(makeConfig(mode, benchmark, channels));
}

/** Percent overhead of `t` versus `base`. */
inline double
overheadPct(Tick t, Tick base)
{
    return 100.0 * (static_cast<double>(t) / base - 1.0);
}

// --- Machine-readable output (OBFUSMEM_BENCH_JSON) ------------------

namespace detail {

/** Escape a string for a JSON value (names here are plain ASCII). */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out.push_back(c);
    }
    return out;
}

/** The shared JSONL sink, opened on first row (append mode). */
inline std::FILE *
jsonFile()
{
    static std::FILE *f = []() -> std::FILE * {
        const char *path = env::raw("OBFUSMEM_BENCH_JSON");
        return path ? std::fopen(path, "a") : nullptr;
    }();
    return f;
}

inline std::mutex &
jsonMutex()
{
    static std::mutex m;
    return m;
}

} // namespace detail

/**
 * Append one JSONL result row to $OBFUSMEM_BENCH_JSON (no-op when the
 * knob is unset). Thread-safe: sweep extractors may call this from
 * worker threads; each row is written and flushed atomically.
 */
inline void
jsonRow(const std::string &bench, const std::string &config,
        const std::string &workload, Tick ticks, double overhead_pct,
        double wall_ms)
{
    std::FILE *f = detail::jsonFile();
    if (!f)
        return;
    std::lock_guard<std::mutex> lock(detail::jsonMutex());
    std::fprintf(f,
                 "{\"bench\":\"%s\",\"config\":\"%s\","
                 "\"workload\":\"%s\",\"ticks\":%llu,"
                 "\"overhead_pct\":%.4f,\"wall_ms\":%.3f}\n",
                 detail::jsonEscape(bench).c_str(),
                 detail::jsonEscape(config).c_str(),
                 detail::jsonEscape(workload).c_str(),
                 static_cast<unsigned long long>(ticks), overhead_pct,
                 wall_ms);
    std::fflush(f);
}

/**
 * Append one JSONL row whose figure of merit is a speedup ratio
 * rather than a percent overhead. Distinct `speedup_x` field so
 * consumers never have to guess which meaning `overhead_pct` carries
 * for a given bench (the historical crypto_microbench overload).
 */
inline void
jsonSpeedupRow(const std::string &bench, const std::string &config,
               const std::string &workload, uint64_t units,
               double speedup_x, double wall_ms)
{
    std::FILE *f = detail::jsonFile();
    if (!f)
        return;
    std::lock_guard<std::mutex> lock(detail::jsonMutex());
    std::fprintf(f,
                 "{\"bench\":\"%s\",\"config\":\"%s\","
                 "\"workload\":\"%s\",\"ticks\":%llu,"
                 "\"speedup_x\":%.4f,\"wall_ms\":%.3f}\n",
                 detail::jsonEscape(bench).c_str(),
                 detail::jsonEscape(config).c_str(),
                 detail::jsonEscape(workload).c_str(),
                 static_cast<unsigned long long>(units), speedup_x,
                 wall_ms);
    std::fflush(f);
}

/**
 * Per-binary bookkeeping for OBFUSMEM_BENCH_JSON runs. Construct one
 * at the top of a benchmark's main(): it appends a host-metadata row
 * (probed CPU feature flags, the resolved AES lane, sweep job count)
 * so rows recorded on different machines are comparable.
 */
class Session
{
  public:
    explicit Session(const std::string &bench)
    {
        std::FILE *f = detail::jsonFile();
        if (!f)
            return;
        std::lock_guard<std::mutex> lock(detail::jsonMutex());
        std::fprintf(f,
                     "{\"bench\":\"%s\",\"config\":\"host\","
                     "\"workload\":\"meta\",\"cpu_features\":\"%s\","
                     "\"aes_impl\":\"%s\",\"jobs\":%u}\n",
                     detail::jsonEscape(bench).c_str(),
                     detail::jsonEscape(
                         crypto::cpuFeatureSummary()).c_str(),
                     crypto::aesImplName(
                         crypto::Aes128::defaultImpl()),
                     benchJobs());
        std::fflush(f);
    }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;
};

inline void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("(instructions/core: %llu, cores: 4, sweep jobs: %u; "
                "override with OBFUSMEM_BENCH_INSTRS / "
                "OBFUSMEM_BENCH_JOBS)\n\n",
                static_cast<unsigned long long>(
                    instructionsPerCore()),
                benchJobs());
}

} // namespace bench
} // namespace obfusmem

#endif // OBFUSMEM_BENCH_COMMON_HH
