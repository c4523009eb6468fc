/**
 * @file
 * Datacenter-scale multi-tenant topology: N sockets, each a complete
 * System (own event queue, channel keys, memory path, PCM substrate),
 * running under the sharded simulation kernel. Each socket hosts M
 * closed-loop tenant drivers that issue an LLC-miss-like request
 * stream straight into the socket's protection path; a fraction of
 * every tenant's requests crosses the socket interconnect to a remote
 * socket's memory (NUMA-style), which is the traffic the kernel's
 * cross-shard posts carry.
 *
 * The topology is the workload for bench/fig5_datacenter.cc: the
 * UNOPT inter-channel scheme pads every request with dummies on every
 * other channel of its socket, so its cost grows with the per-socket
 * channel count while OPT's does not (the paper's Observation 3 at
 * rack scale). Simulated results are bit-identical for any
 * TopologyConfig::shards; see sim/sharded_kernel.hh.
 */

#ifndef OBFUSMEM_SYSTEM_TOPOLOGY_HH
#define OBFUSMEM_SYSTEM_TOPOLOGY_HH

#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mem/channel_bus.hh"
#include "sim/sharded_kernel.hh"
#include "system/system.hh"
#include "util/random.hh"

namespace obfusmem {

/** Per-tenant workload mix (one closed-loop driver). */
struct TenantParams
{
    /** Requests this tenant issues over the run. */
    uint64_t requests = 20 * 1000;
    /** Closed-loop window: requests kept in flight. */
    unsigned outstanding = 4;
    /** Fraction of requests that are stores. */
    double storeFraction = 0.3;
    /** Fraction routed to a uniformly chosen remote socket. */
    double remoteFraction = 0.05;
    /** Idle gap inserted after each completion (0 = immediate). */
    Tick thinkTime = 0;
    /** Working-set blocks inside the tenant's address slice. */
    uint64_t footprintBlocks = 1ull << 16;
};

/** Shape and protection of the simulated rack. */
struct TopologyConfig
{
    unsigned sockets = 2;
    unsigned channelsPerSocket = 2;
    unsigned tenantsPerSocket = 2;
    ProtectionMode mode = ProtectionMode::ObfusMemAuth;
    ChannelScheme channelScheme = ChannelScheme::Opt;
    uint64_t seed = 42;
    /**
     * One-way socket-interconnect latency. Doubles as the kernel's
     * conservative lookahead window, so it must stay >= the epoch
     * length; the constructor uses it as the epoch length directly.
     */
    Tick linkLatency = 500 * tickPerNs;
    /** Worker shards (resolve 0/auto before constructing). */
    unsigned shards = 1;
    /** Record every socket's wire trace (determinism CI legs). */
    bool recordTraces = false;
    /** Per-socket memory capacity (Table 2 default). */
    uint64_t capacityBytes = 8ull << 30;

    unsigned totalChannels() const { return sockets * channelsPerSocket; }
    unsigned totalTenants() const { return sockets * tenantsPerSocket; }
};

class MultiTenantTopology;

/**
 * One tenant: a closed-loop request generator bound to a home socket.
 * All member state is only ever touched from the home socket's shard
 * (issues and completions run on the home event queue).
 */
class TenantDriver
{
  public:
    TenantDriver(MultiTenantTopology &topo, unsigned socket,
                 unsigned slot, const TenantParams &params,
                 uint64_t seed);

    /** Schedule the initial request window on the home queue. */
    void start();

    /**
     * Account a completion; called on the home shard. @p window is
     * true when the completion frees a closed-loop window slot (reads
     * only: writes are posted like cache writebacks and never hold a
     * slot, so the protection layers' write buffering/substitution
     * moves write traffic around without distorting the makespan).
     */
    void complete(Tick issue_tick, bool window);

    unsigned homeSocket() const { return home; }
    uint64_t issuedCount() const { return issued; }
    uint64_t completedCount() const { return completed; }
    uint64_t remoteCount() const { return remoteIssued; }
    uint64_t latencySum() const { return latencySumTicks; }
    Tick lastCompletion() const { return lastCompletionTick; }

  private:
    void issueNext();

    MultiTenantTopology &topo;
    unsigned home;
    unsigned slot;
    TenantParams params;
    Random rng;

    /** Tenant's slice of the home socket's data region. */
    uint64_t addrBase = 0;
    uint64_t footprintBytes = 0;

    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t remoteIssued = 0;
    uint64_t latencySumTicks = 0;
    Tick lastCompletionTick = 0;
};

/**
 * The rack: sockets, tenants, and the sharded kernel tying them
 * together. Single-shot: construct, run(), inspect.
 */
class MultiTenantTopology
{
  public:
    MultiTenantTopology(const TopologyConfig &config,
                        const TenantParams &tenant);
    ~MultiTenantTopology();

    MultiTenantTopology(const MultiTenantTopology &) = delete;
    MultiTenantTopology &operator=(const MultiTenantTopology &) = delete;

    /** Aggregated outcome of one run. */
    struct Result
    {
        uint64_t requestsCompleted = 0;
        uint64_t remoteRequests = 0;
        /** Makespan: last tenant completion (figure of merit). */
        Tick lastCompletionTick = 0;
        double avgLatencyNs = 0;
        uint64_t epochs = 0;
        uint64_t crossMessages = 0;
        uint64_t eventsExecuted = 0;
        double wallMs = 0;
    };

    /** Run every tenant to completion and drain the rack. */
    Result run();

    System &socket(unsigned i) { return *socketsVec[i]; }
    unsigned sockets() const
    {
        return static_cast<unsigned>(socketsVec.size());
    }
    TenantDriver &tenant(unsigned i) { return *tenants[i]; }
    ShardedKernel &kernel() { return theKernel; }
    const TopologyConfig &config() const { return cfg; }
    statistics::Group &rootStats() { return root; }

    /** Concatenated per-socket wire traces (recordTraces only). */
    void dumpWireTraces(std::ostream &os) const;

    /** Topology, kernel, and every socket's stats, in socket order. */
    void dumpStats(std::ostream &os) const;

    // --- TenantDriver plumbing (home-shard context only) -------------

    System &homeSystem(const TenantDriver &drv)
    {
        return *socketsVec[drv.homeSocket()];
    }

    /**
     * Ship a request over the interconnect to @p dst_sock, access its
     * memory there, and post the reply back to the tenant's home
     * socket. Both hops go through the kernel's lookahead-checked
     * post().
     */
    void remoteIssue(TenantDriver *drv, MemPacket pkt,
                     unsigned dst_sock, Tick issue_tick, bool window);

  private:
    TopologyConfig cfg;
    statistics::Group root;
    ShardedKernel theKernel;
    std::vector<std::unique_ptr<System>> socketsVec;
    std::vector<unsigned> endpointIds;
    std::vector<std::unique_ptr<TenantDriver>> tenants;
    /** Per-socket wire traces (recordTraces only); deques keep
     *  every element where it was built. */
    std::deque<std::ostringstream> traces;
    std::deque<WireTraceRecorder> recorders;
    bool ran = false;
};

} // namespace obfusmem

#endif // OBFUSMEM_SYSTEM_TOPOLOGY_HH
