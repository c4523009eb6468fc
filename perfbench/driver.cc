/**
 * @file
 * Benchmark driver behind perfbench/run.py. It runs one named
 * workload (spec, rack or oram) through the public System and
 * MultiTenantTopology API on one thread and prints JSON lines: host
 * metadata, one record per configuration run (simulated result plus
 * every statistic, read by name), the spans it timed, and the peak
 * resident set. It changes no simulator code; each layer is measured
 * from outside, by timing the calls into the constructors and run()
 * and by reading the modules' statistics after the run.
 *
 * usage: perfbench_driver --workload spec|rack|oram --seed N
 *            --seconds S [--trace 0|1] [--min-passes N]
 *
 * After an untimed warm-up pass (every config at a tenth of its size),
 * it repeats full passes over the workload's configs until another
 * pass would overrun --seconds, and always makes at least
 * --min-passes (default 3). With --trace 1 it alternates untraced and
 * traced passes; a traced pass records the span tree
 * workload -> config -> build.mempath / build / run / check, where
 * build.mempath builds the same config without cores or cache
 * warm-up.
 */

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/aes128.hh"
#include "crypto/cpu_features.hh"
#include "system/system.hh"
#include "system/topology.hh"

extern char **environ;

namespace {

using namespace obfusmem;
using Clock = std::chrono::steady_clock;

// Workload sizes are fixed here so that every run of a workload does
// the same simulated work for a given seed.
constexpr uint64_t kSpecInstrsPerCore = 500 * 1000;
constexpr uint64_t kOramInstrsPerCore = 40 * 1000;
/**
 * Each oram profile runs under this many seeds derived from --seed.
 * Whether a seed's warmed L3 holds many dirty lines on the stream's
 * path picks one of two writeback modes (lbm: ~100 or ~1600 per run),
 * which moves Path ORAM's work by a third; four draws per profile keep
 * the workload's size steady from one --seed to the next.
 */
constexpr unsigned kOramSeedsPerProfile = 4;
/**
 * Path ORAM tree depth for oram-detailed: 2^17 - 1 buckets (~50 MB),
 * several times more than a run's paths touch, so peak RSS follows
 * the declared geometry rather than use.
 */
constexpr unsigned kOramLevels = 16;
constexpr unsigned kRackSockets = 4;
constexpr unsigned kRackChannels = 8;
constexpr unsigned kRackTenants = 4;
constexpr uint64_t kRackRequestsPerTenant = 5000;
/** The warm-up pass runs every config at 1/kWarmupDivisor size. */
constexpr uint64_t kWarmupDivisor = 10;

/** One configuration run of a workload. */
struct Op
{
    /** Unique id, e.g. "spec/mcf/encryption-only". */
    std::string id;
    /** Ops of one group share a workload and an unprotected twin. */
    std::string group;
    /** Protection label: a mode name, or "opt"/"unopt" on the rack. */
    std::string label;
    bool rack = false;
    SystemConfig sys;
    TopologyConfig topo;
    TenantParams tenant;
};

SystemConfig
coreConfig(ProtectionMode mode, const std::string &profile,
           uint64_t instrs, uint64_t seed)
{
    // As bench::makeConfig builds it, with observer and auditor off.
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.benchmark = profile;
    cfg.channels = 1;
    cfg.instrPerCore = instrs;
    cfg.seed = seed;
    cfg.attachObserver = false;
    cfg.attachAuditor = false;
    cfg.oramDetailed.oram.levels = kOramLevels;
    return cfg;
}

/**
 * Append every profile x mode config, each profile under @p samples
 * seeds derived from @p seed (seed * samples + k; one sample keeps
 * @p seed itself).
 */
void
addCoreOps(std::vector<Op> &ops, const std::string &workload,
           std::initializer_list<const char *> profiles,
           std::initializer_list<ProtectionMode> modes, uint64_t instrs,
           uint64_t seed, unsigned samples)
{
    for (const char *profile : profiles) {
        for (unsigned k = 0; k < samples; ++k) {
            std::string group = workload + "/" + profile;
            if (samples > 1)
                group += "." + std::to_string(k);
            for (ProtectionMode mode : modes) {
                Op op;
                op.label = protectionModeName(mode);
                op.group = group;
                op.id = group + "/" + op.label;
                op.sys = coreConfig(mode, profile, instrs,
                                    seed * samples + k);
                ops.push_back(op);
            }
        }
    }
}

Op
rackOp(const std::string &label, ProtectionMode mode,
       ChannelScheme scheme, uint64_t seed)
{
    Op op;
    op.label = label;
    op.group = "rack";
    op.id = "rack/" + label;
    op.rack = true;
    op.topo.sockets = kRackSockets;
    op.topo.channelsPerSocket = kRackChannels;
    op.topo.tenantsPerSocket = kRackTenants;
    op.topo.mode = mode;
    op.topo.channelScheme = scheme;
    op.topo.seed = seed;
    op.topo.shards = 1;
    op.tenant.requests = kRackRequestsPerTenant;
    return op;
}

/** The workload's configs; empty for an unknown workload name. */
std::vector<Op>
workloadOps(const std::string &workload, uint64_t seed)
{
    std::vector<Op> ops;
    if (workload == "spec") {
        // Read-leaning memory-bound (mcf, bwaves), write-heavy (lbm)
        // and cache-resident (omnetpp) Table 1 profiles.
        addCoreOps(ops, workload, {"mcf", "bwaves", "lbm", "omnetpp"},
                   {ProtectionMode::Unprotected,
                    ProtectionMode::EncryptionOnly,
                    ProtectionMode::ObfusMemAuth},
                   kSpecInstrsPerCore, seed, 1);
    } else if (workload == "oram") {
        addCoreOps(ops, workload, {"milc", "lbm"},
                   {ProtectionMode::Unprotected, ProtectionMode::OramFixed,
                    ProtectionMode::OramDetailed, ProtectionMode::FlatOram,
                    ProtectionMode::WriteOnlyOram},
                   kOramInstrsPerCore, seed, kOramSeedsPerProfile);
    } else if (workload == "rack") {
        ops.push_back(rackOp("unprotected", ProtectionMode::Unprotected,
                             ChannelScheme::Opt, seed));
        ops.push_back(rackOp("opt", ProtectionMode::ObfusMemAuth,
                             ChannelScheme::Opt, seed));
        ops.push_back(rackOp("unopt", ProtectionMode::ObfusMemAuth,
                             ChannelScheme::Unopt, seed));
    }
    return ops;
}

/** The same config at 1/kWarmupDivisor of its size. */
Op
warmupOp(Op op)
{
    op.sys.instrPerCore /= kWarmupDivisor;
    op.tenant.requests /= kWarmupDivisor;
    return op;
}

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Current resident set in MB (0 where /proc is unavailable). */
double
residentMb()
{
    std::ifstream statm("/proc/self/statm");
    unsigned long long size = 0, resident = 0;
    if (!(statm >> size >> resident))
        return 0;
    return static_cast<double>(resident)
           * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

/** Peak resident set of this process in MB (VmHWM). */
double
peakResidentMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) >= 0x20) {
            out.push_back(c);
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Parse a stats dump into name -> value, summing instances: the root
 * group is dropped and a per-instance index is stripped from the
 * module name ("system.bus3.messages" -> "bus.messages"), so channels
 * and sockets add up under one name.
 */
std::map<std::string, double>
statsByName(const std::string &dump)
{
    std::map<std::string, double> stats;
    std::istringstream in(dump);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, value;
        if (!(fields >> name >> value))
            continue;
        char *end = nullptr;
        double v = std::strtod(value.c_str(), &end);
        size_t root = name.find('.');
        if (*end != '\0' || root == std::string::npos)
            continue;
        std::string rest = name.substr(root + 1);
        size_t module = rest.find('.');
        if (module == std::string::npos)
            continue;
        size_t digits = module;
        while (digits > 0 && rest[digits - 1] >= '0'
               && rest[digits - 1] <= '9')
            --digits;
        stats[rest.substr(0, digits) + rest.substr(module)] += v;
    }
    return stats;
}

/** Spans kept in memory and printed when the driver ends. */
class Spans
{
  public:
    explicit Spans(Clock::time_point origin) : origin(origin) {}

    /** Open a span and return its id. */
    int
    open(const char *name, int parent, int pass,
         const std::string &config)
    {
        spans.push_back({name, config, parent, pass,
                         seconds(origin, Clock::now()), 0});
        return static_cast<int>(spans.size()) - 1;
    }

    void close(int id) { spans[id].end = seconds(origin, Clock::now()); }

    void
    print() const
    {
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::printf("{\"span\":{\"id\":%zu,\"name\":%s,"
                        "\"parent\":%d,\"pass\":%d,\"config\":%s,"
                        "\"start\":%s,\"end\":%s}}\n",
                        i, jsonString(s.name).c_str(), s.parent,
                        s.pass, jsonString(s.config).c_str(),
                        jsonNumber(s.start).c_str(),
                        jsonNumber(s.end).c_str());
        }
    }

  private:
    struct Span
    {
        std::string name;
        std::string config;
        int parent;
        int pass;
        double start;
        double end;
    };

    Clock::time_point origin;
    std::vector<Span> spans;
};

/** What one config run produced. */
struct OpResult
{
    bool complete = false;
    Tick ticks = 0;
    uint64_t requests = 0;
    double buildRssMb = 0;
    std::map<std::string, double> stats;
};

/** RAII span: closes on scope exit when tracing (id >= 0). */
class Scope
{
  public:
    Scope(Spans &spans, bool on, const char *name, int parent, int pass,
          const std::string &config)
        : spans(spans),
          id(on ? spans.open(name, parent, pass, config) : -1)
    {}
    ~Scope()
    {
        if (id >= 0)
            spans.close(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    Spans &spans;
    const int id;
};

/**
 * Build, run and read one config. @p timed records the build and run
 * spans (the end-to-end metrics need them); @p traced adds the config,
 * build.mempath and check spans.
 */
OpResult
runOp(const Op &op, Spans &spans, bool timed, bool traced, int parent,
      int pass)
{
    OpResult res;
    Scope config(spans, traced, "config", parent, pass, op.id);
    const int under = traced ? config.id : parent;

    if (op.rack) {
        std::unique_ptr<MultiTenantTopology> rack;
        {
            Scope s(spans, timed, "build", under, pass, op.id);
            rack = std::make_unique<MultiTenantTopology>(op.topo,
                                                         op.tenant);
        }
        res.buildRssMb = residentMb();
        MultiTenantTopology::Result r;
        {
            Scope s(spans, timed, "run", under, pass, op.id);
            r = rack->run();
        }
        Scope s(spans, traced, "check", under, pass, op.id);
        res.ticks = r.lastCompletionTick;
        res.requests = r.requestsCompleted;
        res.complete = r.requestsCompleted
                       == uint64_t(op.topo.totalTenants())
                              * op.tenant.requests;
        std::ostringstream dump;
        rack->dumpStats(dump);
        res.stats = statsByName(dump.str());
        return res;
    }

    if (traced) {
        Scope s(spans, true, "build.mempath", under, pass, op.id);
        SystemConfig mempath = op.sys;
        mempath.buildCores = false;
        System bare(mempath);
    }
    std::unique_ptr<System> sys;
    {
        Scope s(spans, timed, "build", under, pass, op.id);
        sys = std::make_unique<System>(op.sys);
    }
    res.buildRssMb = residentMb();
    System::RunResult r;
    {
        Scope s(spans, timed, "run", under, pass, op.id);
        r = sys->run();
    }
    Scope s(spans, traced, "check", under, pass, op.id);
    res.ticks = r.execTicks;
    res.complete =
        r.instructions == uint64_t(op.sys.cores) * op.sys.instrPerCore;
    std::ostringstream dump;
    sys->dumpStats(dump);
    res.stats = statsByName(dump.str());
    res.requests = static_cast<uint64_t>(res.stats["caches.llcMisses"]
                                         + res.stats["caches.writebacks"]);
    return res;
}

void
printOp(const Op &op, const OpResult &res, int pass, bool traced)
{
    std::string stats;
    for (const auto &[name, value] : res.stats) {
        stats += stats.empty() ? "" : ",";
        stats += jsonString(name) + ":" + jsonNumber(value);
    }
    std::printf("{\"op\":{\"id\":%s,\"group\":%s,\"label\":%s,"
                "\"cores\":%s,\"pass\":%d,\"traced\":%s,"
                "\"complete\":%s,\"ticks\":%llu,\"requests\":%llu,"
                "\"build_rss_mb\":%s,\"stats\":{%s}}}\n",
                jsonString(op.id).c_str(), jsonString(op.group).c_str(),
                jsonString(op.label).c_str(),
                op.rack ? "false" : "true", pass,
                traced ? "true" : "false",
                res.complete ? "true" : "false",
                static_cast<unsigned long long>(res.ticks),
                static_cast<unsigned long long>(res.requests),
                jsonNumber(res.buildRssMb).c_str(), stats.c_str());
    std::fflush(stdout);
}

/** Host metadata, so a knob A/B run is never taken for the default. */
void
printMeta(const std::string &workload, uint64_t seed)
{
    std::string env;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "OBFUSMEM_", 9) != 0)
            continue;
        const char *eq = std::strchr(*e, '=');
        if (!eq)
            continue;
        env += env.empty() ? "" : ",";
        env += jsonString(std::string(*e, static_cast<size_t>(eq - *e)))
               + ":" + jsonString(eq + 1);
    }
    std::printf("{\"meta\":{\"workload\":%s,\"seed\":%llu,"
                "\"cpu_features\":%s,\"aes_impl\":%s,"
                "\"build_type\":%s,\"jobs\":1,\"shards\":1,"
                "\"env\":{%s}}}\n",
                jsonString(workload).c_str(),
                static_cast<unsigned long long>(seed),
                jsonString(crypto::cpuFeatureSummary()).c_str(),
                jsonString(crypto::aesImplName(
                               crypto::Aes128::defaultImpl()))
                    .c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(), env.c_str());
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload spec|rack|oram "
                 "--seed N --seconds S [--trace 0|1] "
                 "[--min-passes N]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 1;
    double budget = 10;
    bool trace = false;
    long min_passes = 3;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            workload = value;
            continue;
        } else if (flag == "--seed") {
            seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            budget = std::strtod(value, &end);
        } else if (flag == "--trace") {
            trace = std::strtol(value, &end, 10) != 0;
        } else if (flag == "--min-passes") {
            min_passes = std::strtol(value, &end, 10);
        } else {
            return usage();
        }
        if (end == value || *end != '\0')
            return usage();
    }
    const std::vector<Op> ops = workloadOps(workload, seed);
    if (ops.empty() || argc % 2 == 0 || min_passes < 1)
        return usage();
    // A traced run needs an untraced and a traced pass to compare.
    if (trace && min_passes < 2)
        min_passes = 2;

    printMeta(workload, seed);
    Spans spans(Clock::now());

    for (const Op &op : ops) {
        Op small = warmupOp(op);
        runOp(small, spans, false, false, -1, -1);
    }

    const Clock::time_point start = Clock::now();
    for (int pass = 0;; ++pass) {
        const bool traced = trace && pass % 2 == 1;
        {
            Scope whole(spans, true, "workload", -1, pass, workload);
            for (const Op &op : ops) {
                OpResult res =
                    runOp(op, spans, true, traced, whole.id, pass);
                printOp(op, res, pass, traced);
            }
        }
        const int done = pass + 1;
        const double elapsed = seconds(start, Clock::now());
        if (done >= min_passes && (!trace || done % 2 == 0)
            && elapsed + elapsed / done > budget)
            break;
    }

    spans.print();
    std::printf("{\"peak_rss_mb\":%s}\n",
                jsonNumber(peakResidentMb()).c_str());
    return 0;
}
