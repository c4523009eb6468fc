/**
 * @file
 * ORAM timing model implementations.
 */

#include "oram/oram_controller.hh"

#include <memory>

#include "util/logging.hh"

namespace obfusmem {

// ---------------------------------------------------------------------
// OramFixedLatency
// ---------------------------------------------------------------------

OramFixedLatency::OramFixedLatency(const std::string &name,
                                   EventQueue &eq,
                                   statistics::Group *parent,
                                   const Params &params_,
                                   BackingStore &store_)
    : SimObject(name, eq, parent), params(params_), store(store_)
{
    stats().addScalar("accesses", &accesses, "ORAM accesses");
    stats().addScalar("pathBlocksRead", &pathBlocksRead,
                      "blocks read along tree paths");
    stats().addScalar("pathBlocksWritten", &pathBlocksWritten,
                      "blocks written (evicted) along tree paths");
}

void
OramFixedLatency::access(MemPacket pkt, PacketCallback cb)
{
    ++accesses;
    // Every access reads a full path and evicts it afterwards,
    // regardless of the request type (Sec. 2.3 / 5.2).
    pathBlocksRead += static_cast<double>(pathBlocks());
    pathBlocksWritten += static_cast<double>(pathBlocks());

    // The controller pipeline admits a new path access at most once
    // per initiation interval.
    Tick start = std::max(curTick(), nextStartAt);
    nextStartAt = start + params.initiationInterval;
    Tick complete = start + params.accessLatency;

    eventQueue().schedule(complete,
        [this, pkt = std::move(pkt), cb = std::move(cb)]() mutable {
            if (pkt.isRead()) {
                pkt.data = store.read(pkt.addr);
            } else {
                store.write(pkt.addr, pkt.data);
            }
            cb(std::move(pkt));
        });
}

// ---------------------------------------------------------------------
// OramPhasedController
// ---------------------------------------------------------------------

OramPhasedController::OramPhasedController(const std::string &name,
                                           EventQueue &eq,
                                           statistics::Group *parent,
                                           MemSink &memory_,
                                           uint64_t region_base)
    : SimObject(name, eq, parent), memory(memory_),
      regionBase(region_base)
{
    stats().addScalar("accesses", &accesses, "ORAM accesses");
    stats().addScalar("physicalTransfers", &physicalTransfers,
                      "blocks moved to/from memory");
    stats().addAverage("accessLatencyNs", &accessLatencyNs,
                       "end-to-end ORAM access latency");
    stats().addScalar("logicalWrites", &logicalWrites,
                      "write requests served");
    stats().addScalar("physicalWrites", &physicalWrites,
                      "blocks written to memory");
}

void
OramPhasedController::access(MemPacket pkt, PacketCallback cb)
{
    queue.push_back({std::move(pkt), std::move(cb)});
    if (!busy)
        startNext();
}

void
OramPhasedController::startNext()
{
    if (queue.empty()) {
        busy = false;
        return;
    }
    busy = true;

    QueuedAccess req = std::move(queue.front());
    queue.pop_front();
    ++accesses;
    if (!req.pkt.isRead())
        ++logicalWrites;
    Tick started = curTick();

    // Functional access first: it yields the data and the physical
    // transfer plan.
    AccessPlan plan = planAccess(req.pkt);

    struct Txn
    {
        MemPacket pkt;
        PacketCallback cb;
        AccessPlan plan;
        size_t pendingReads = 0;
        size_t pendingWrites = 0;
        Tick started;
    };
    auto txn = std::make_shared<Txn>();
    txn->pkt = std::move(req.pkt);
    txn->cb = std::move(req.cb);
    txn->plan = std::move(plan);
    txn->started = started;

    auto finish = [this, txn]() {
        Tick done = curTick() + perBlockLatency;
        accessLatencyNs.sample(ticksToNs(done - txn->started));
        eventQueue().schedule(done, [this, txn]() {
            MemPacket resp = std::move(txn->pkt);
            if (resp.isRead())
                resp.data = txn->plan.result;
            txn->cb(std::move(resp));
            startNext();
        });
    };

    // Phase 2: write every planned block.
    auto startWrites = [this, txn, finish]() {
        if (txn->plan.writeSlots.empty()) {
            finish();
            return;
        }
        txn->pendingWrites = txn->plan.writeSlots.size();
        for (uint64_t slot : txn->plan.writeSlots) {
            ++physicalTransfers;
            ++physicalWrites;
            MemPacket wr;
            wr.cmd = MemCmd::Write;
            wr.addr = slotAddr(slot);
            wr.issueTick = curTick();
            memory.access(std::move(wr),
                [txn, finish](MemPacket &&) {
                    if (--txn->pendingWrites == 0)
                        finish();
                });
        }
    };

    // Phase 1: read every planned block.
    if (txn->plan.readSlots.empty()) {
        startWrites();
        return;
    }
    txn->pendingReads = txn->plan.readSlots.size();
    for (uint64_t slot : txn->plan.readSlots) {
        ++physicalTransfers;
        MemPacket rd;
        rd.cmd = MemCmd::Read;
        rd.addr = slotAddr(slot);
        rd.issueTick = curTick();
        memory.access(std::move(rd),
            [txn, startWrites](MemPacket &&) {
                if (--txn->pendingReads == 0)
                    startWrites();
            });
    }
}

// ---------------------------------------------------------------------
// OramDetailed
// ---------------------------------------------------------------------

OramDetailed::OramDetailed(const std::string &name, EventQueue &eq,
                           statistics::Group *parent,
                           const Params &params_, MemSink &memory_,
                           uint64_t region_base)
    : OramPhasedController(name, eq, parent, memory_, region_base),
      params(params_), tree(params_.oram)
{
    stats().addAverage("stashOccupancy", &stashOccupancy,
                       "stash size after each access");
    stats().addAverage("stashPeakOccupancy", &stashPeakOccupancy,
                       "mid-access transient stash peak");
    stats().addScalar("maxStash", &maxStash,
                      "largest stash after eviction");
    stats().addScalar("maxTransientStash", &maxTransientStash,
                      "largest mid-access transient stash");
}

OramPhasedController::AccessPlan
OramDetailed::planAccess(const MemPacket &pkt)
{
    AccessPlan plan;
    uint64_t block_id = blockOf(pkt.addr);
    if (pkt.isRead()) {
        plan.result = tree.read(block_id);
    } else {
        tree.write(block_id, pkt.data);
        plan.result = pkt.data;
    }
    stashOccupancy.sample(static_cast<double>(tree.stashSize()));
    stashPeakOccupancy.sample(
        static_cast<double>(tree.lastAccessPeakStash()));
    maxStash.set(static_cast<double>(tree.maxStashSize()));
    maxTransientStash.set(
        static_cast<double>(tree.maxTransientStashSize()));

    // Every access reads the whole path and evicts onto it.
    const auto &slots = tree.lastPathSlots();
    plan.readSlots.reserve(slots.size());
    for (const auto &slot : slots) {
        plan.readSlots.push_back(
            slot.bucket * params.oram.bucketSize + slot.slot);
    }
    plan.writeSlots = plan.readSlots;
    return plan;
}

// ---------------------------------------------------------------------
// FlatOramController
// ---------------------------------------------------------------------

FlatOramController::FlatOramController(const std::string &name,
                                       EventQueue &eq,
                                       statistics::Group *parent,
                                       const Params &params,
                                       MemSink &memory_,
                                       uint64_t region_base)
    : OramPhasedController(name, eq, parent, memory_, region_base),
      flat(params.oram)
{
    stats().addAverage("writeProbes", &writeProbes,
                       "occupancy probes per write");
}

OramPhasedController::AccessPlan
FlatOramController::planAccess(const MemPacket &pkt)
{
    AccessPlan plan;
    uint64_t block_id = blockOf(pkt.addr);
    if (pkt.isRead()) {
        plan.result = flat.read(block_id);
        plan.readSlots = flat.lastReadSlots();
    } else {
        flat.write(block_id, pkt.data);
        plan.result = pkt.data;
        plan.writeSlots = flat.lastWriteSlots();
        writeProbes.sample(
            static_cast<double>(flat.lastProbeCount()));
    }
    return plan;
}

// ---------------------------------------------------------------------
// WriteOnlyOramController
// ---------------------------------------------------------------------

WriteOnlyOramController::WriteOnlyOramController(
        const std::string &name, EventQueue &eq,
        statistics::Group *parent, const Params &params,
        MemSink &memory_, uint64_t region_base)
    : OramPhasedController(name, eq, parent, memory_, region_base),
      wo(params.oram)
{
    stats().addAverage("holdingOccupancy", &holdingOccupancy,
                       "blocks whose freshest copy is in holding");
}

OramPhasedController::AccessPlan
WriteOnlyOramController::planAccess(const MemPacket &pkt)
{
    AccessPlan plan;
    uint64_t block_id = blockOf(pkt.addr);
    if (pkt.isRead()) {
        plan.result = wo.read(block_id);
        plan.readSlots = wo.lastReadSlots();
    } else {
        wo.write(block_id, pkt.data);
        plan.result = pkt.data;
        plan.writeSlots = wo.lastWriteSlots();
    }
    holdingOccupancy.sample(static_cast<double>(wo.holdingCount()));
    return plan;
}

} // namespace obfusmem
