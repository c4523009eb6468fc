/**
 * @file
 * MultiTenantTopology / TenantDriver implementation.
 */

#include "system/topology.hh"

#include <chrono>

#include "util/assert.hh"

namespace obfusmem {

namespace {

/** SplitMix64 step for deriving independent per-entity seeds. */
uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

// --- TenantDriver ---------------------------------------------------

TenantDriver::TenantDriver(MultiTenantTopology &topo_, unsigned socket,
                           unsigned slot_, const TenantParams &params_,
                           uint64_t seed)
    : topo(topo_), home(socket), slot(slot_), params(params_),
      rng(seed)
{
    const SystemConfig &sc = topo.socket(home).config();
    uint64_t slice = sc.dataRegionBytes()
                     / topo.config().tenantsPerSocket;
    slice = blockAlign(slice);
    panic_if(slice < blockBytes, "tenant address slice too small");
    addrBase = slot * slice;
    footprintBytes = params.footprintBlocks * blockBytes;
    if (footprintBytes > slice || footprintBytes == 0)
        footprintBytes = slice;
}

void
TenantDriver::start()
{
    EventQueue &eq = topo.homeSystem(*this).eventQueue();
    // Stagger the initial window by a tick per slot so the issue
    // order is fixed by construction, not by tie-breaking.
    for (unsigned w = 0; w < params.outstanding; ++w) {
        eq.schedule(eq.curTick() + 1 + w,
                    [this]() { issueNext(); });
    }
}

void
TenantDriver::issueNext()
{
    System &sys = topo.homeSystem(*this);
    // A window slot is occupied by reads only; stores are posted
    // (writeback-style) and the slot keeps issuing in the same tick
    // until it lands on a read or runs out of requests.
    while (issued < params.requests) {
        ++issued;

        const Tick issue_tick = sys.eventQueue().curTick();
        const bool remote = topo.sockets() > 1
                            && rng.chance(params.remoteFraction);
        const bool store = rng.chance(params.storeFraction);
        const bool window = !store;

        MemPacket pkt;
        pkt.cmd = store ? MemCmd::Write : MemCmd::Read;
        pkt.addr = addrBase
                   + blockAlign(rng.randUnder(footprintBytes));
        pkt.coreId = -1;
        pkt.issueTick = issue_tick;
        if (store) {
            // Cheap deterministic payload; the crypto layers
            // transform it end to end so even a thin pattern
            // exercises them fully.
            for (unsigned i = 0; i < 8; ++i)
                pkt.data[i] = static_cast<uint8_t>(
                    (issued >> (i * 8)) ^ (home * 131 + slot));
        }

        if (remote) {
            ++remoteIssued;
            unsigned dst = static_cast<unsigned>(
                rng.randUnder(topo.sockets() - 1));
            if (dst >= home)
                ++dst;
            topo.remoteIssue(this, std::move(pkt), dst, issue_tick,
                             window);
        } else {
            sys.memorySink().access(
                std::move(pkt),
                [this, issue_tick, window](MemPacket &&) {
                    complete(issue_tick, window);
                });
        }
        if (window)
            return;
    }
}

void
TenantDriver::complete(Tick issue_tick, bool window)
{
    EventQueue &eq = topo.homeSystem(*this).eventQueue();
    const Tick now = eq.curTick();
    ++completed;
    latencySumTicks += now - issue_tick;
    if (now > lastCompletionTick)
        lastCompletionTick = now;
    if (!window || issued >= params.requests)
        return;
    if (params.thinkTime == 0) {
        issueNext();
        return;
    }
    eq.scheduleAfter(params.thinkTime, [this]() { issueNext(); });
}

// --- MultiTenantTopology --------------------------------------------

MultiTenantTopology::MultiTenantTopology(const TopologyConfig &config,
                                         const TenantParams &tenant)
    : cfg(config), root("topology", nullptr),
      theKernel({cfg.shards ? cfg.shards : 1, cfg.linkLatency})
{
    panic_if(cfg.sockets == 0, "topology needs at least one socket");
    panic_if(cfg.tenantsPerSocket == 0,
             "topology needs at least one tenant per socket");

    theKernel.attachStats(root);

    for (unsigned s = 0; s < cfg.sockets; ++s) {
        SystemConfig sc;
        sc.mode = cfg.mode;
        sc.capacityBytes = cfg.capacityBytes;
        sc.channels = cfg.channelsPerSocket;
        sc.obfusmem.channelScheme = cfg.channelScheme;
        // Independent per-socket keys/state, derived from one seed.
        sc.seed = mixSeed(cfg.seed, s + 1);
        sc.buildCores = false;
        sc.attachObserver = false;
        socketsVec.push_back(std::make_unique<System>(sc));
        endpointIds.push_back(
            theKernel.addEndpoint(socketsVec.back()->eventQueue()));
        if (cfg.recordTraces) {
            recorders.emplace_back(traces.emplace_back());
            for (auto &bus : socketsVec.back()->channelBuses())
                bus->attachProbe(&recorders.back());
        }
    }

    for (unsigned s = 0; s < cfg.sockets; ++s) {
        for (unsigned t = 0; t < cfg.tenantsPerSocket; ++t) {
            uint64_t id = uint64_t(s) * cfg.tenantsPerSocket + t;
            tenants.push_back(std::make_unique<TenantDriver>(
                *this, s, t, tenant,
                mixSeed(cfg.seed ^ 0x7e9a1c3fu, id + 1)));
        }
    }
}

MultiTenantTopology::~MultiTenantTopology() = default;

void
MultiTenantTopology::remoteIssue(TenantDriver *drv, MemPacket pkt,
                                 unsigned dst_sock, Tick issue_tick,
                                 bool window)
{
    const unsigned home_sock = drv->homeSocket();
    const unsigned src_ep = endpointIds[home_sock];
    const unsigned dst_ep = endpointIds[dst_sock];
    const Tick depart =
        socketsVec[home_sock]->eventQueue().curTick();

    // Request hop: runs on the destination socket's shard.
    theKernel.post(
        src_ep, dst_ep, depart + cfg.linkLatency,
        [this, drv, pkt = std::move(pkt), home_sock, dst_sock,
         issue_tick, window]() mutable {
            System &remote = *socketsVec[dst_sock];
            const unsigned reply_src = endpointIds[dst_sock];
            const unsigned reply_dst = endpointIds[home_sock];
            remote.memorySink().access(
                std::move(pkt),
                [this, drv, reply_src, reply_dst, dst_sock,
                 issue_tick, window](MemPacket &&) {
                    // Reply hop: back to the tenant's home shard.
                    const Tick back =
                        socketsVec[dst_sock]->eventQueue().curTick();
                    theKernel.post(reply_src, reply_dst,
                                   back + cfg.linkLatency,
                                   [drv, issue_tick, window]() {
                                       drv->complete(issue_tick,
                                                     window);
                                   });
                });
        });
}

MultiTenantTopology::Result
MultiTenantTopology::run()
{
    panic_if(ran, "MultiTenantTopology::run() is single-shot");
    ran = true;

    for (auto &t : tenants)
        t->start();

    const auto wall_start = std::chrono::steady_clock::now();
    ShardedKernel::RunSummary sum = theKernel.run();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    Result res;
    res.epochs = sum.epochs;
    res.crossMessages = sum.crossMessages;
    res.eventsExecuted = sum.eventsExecuted;
    res.wallMs = wall_ms;
    uint64_t lat_sum = 0;
    for (auto &t : tenants) {
        panic_if(t->completedCount() != t->issuedCount(),
                 "tenant wedged: ", t->completedCount(), "/",
                 t->issuedCount(), " requests completed");
        res.requestsCompleted += t->completedCount();
        res.remoteRequests += t->remoteCount();
        lat_sum += t->latencySum();
        if (t->lastCompletion() > res.lastCompletionTick)
            res.lastCompletionTick = t->lastCompletion();
    }
    if (res.requestsCompleted)
        res.avgLatencyNs =
            static_cast<double>(lat_sum)
            / static_cast<double>(res.requestsCompleted) / tickPerNs;
    return res;
}

void
MultiTenantTopology::dumpWireTraces(std::ostream &os) const
{
    panic_if(traces.empty(),
             "wire traces not recorded (TopologyConfig::recordTraces)");
    for (unsigned s = 0; s < traces.size(); ++s)
        os << "# socket " << s << '\n' << traces[s].str();
}

void
MultiTenantTopology::dumpStats(std::ostream &os) const
{
    root.dump(os);
    for (unsigned s = 0; s < socketsVec.size(); ++s) {
        os << "--- socket " << s << " ---\n";
        socketsVec[s]->dumpStats(os);
    }
}

} // namespace obfusmem
