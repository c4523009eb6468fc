/**
 * @file
 * CacheHierarchy implementation.
 */

#include "cpu/cache_hierarchy.hh"

#include <algorithm>

#include "mem/backing_store.hh"
#include "util/assert.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace obfusmem {

// ---------------------------------------------------------------------
// FuncCache
// ---------------------------------------------------------------------

FuncCache::FuncCache(const CacheParams &params)
    : assoc(params.assoc)
{
    uint64_t num_lines = params.sizeBytes / blockBytes;
    fatal_if(num_lines % assoc != 0, "cache size/assoc mismatch");
    sets = num_lines / assoc;
    fatal_if(!isPowerOf2(sets), "number of sets must be a power of 2");
    lines.resize(num_lines);
    blocks = std::make_unique_for_overwrite<DataBlock[]>(num_lines);
}

DataBlock
FuncCache::Victim::data() const
{
    return neverWritten ? neverWrittenBlock(addr) : block;
}

uint64_t
FuncCache::setIndex(uint64_t addr) const
{
    return (addr / blockBytes) & (sets - 1);
}

uint64_t
FuncCache::tagOf(uint64_t addr) const
{
    return (addr / blockBytes) / sets;
}

uint64_t
FuncCache::addrOf(uint64_t set, uint64_t tag) const
{
    return (tag * sets + set) * blockBytes;
}

size_t
FuncCache::slot(const Line &line) const
{
    size_t i = static_cast<size_t>(&line - lines.data());
    OBF_DCHECK(i < lines.size(), "line of another cache");
    return i;
}

FuncCache::Line *
FuncCache::find(uint64_t addr)
{
    uint64_t set = setIndex(addr);
    uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < assoc; ++w) {
        Line &line = lines[set * assoc + w];
        if (line.valid && line.tag == tag) {
            line.lruStamp = ++lruCounter;
            return &line;
        }
    }
    return nullptr;
}

const FuncCache::Line *
FuncCache::peek(uint64_t addr) const
{
    uint64_t set = setIndex(addr);
    uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < assoc; ++w) {
        const Line &line = lines[set * assoc + w];
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

const DataBlock &
FuncCache::data(const Line &line) const
{
    size_t i = slot(line);
    if (line.neverWritten) {
        blocks[i] = neverWrittenBlock(addrOf(i / assoc, line.tag));
        line.neverWritten = false;
    }
    return blocks[i];
}

void
FuncCache::setData(Line &line, const DataBlock &data)
{
    blocks[slot(line)] = data;
    line.neverWritten = false;
}

FuncCache::Victim
FuncCache::victimOf(const Line &line, uint64_t addr) const
{
    Victim out;
    out.valid = true;
    out.addr = addr;
    out.dirty = line.dirty;
    if (line.dirty) {
        out.neverWritten = line.neverWritten;
        if (!line.neverWritten)
            out.block = blocks[slot(line)];
    }
    return out;
}

FuncCache::Line &
FuncCache::place(uint64_t addr, bool dirty, bool exclusive,
                 Victim &victim_out)
{
    if (Line *hit = find(addr)) {
        hit->dirty = hit->dirty || dirty;
        hit->exclusive = hit->exclusive || exclusive;
        return *hit;
    }

    uint64_t set = setIndex(addr);
    Line *victim = nullptr;
    for (unsigned w = 0; w < assoc; ++w) {
        Line &line = lines[set * assoc + w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lruStamp < victim->lruStamp)
            victim = &line;
    }

    if (victim->valid)
        victim_out = victimOf(*victim, addrOf(set, victim->tag));

    victim->tag = tagOf(addr);
    victim->valid = true;
    victim->dirty = dirty;
    victim->exclusive = exclusive;
    victim->lruStamp = ++lruCounter;
    return *victim;
}

FuncCache::Victim
FuncCache::insert(uint64_t addr, const DataBlock &data, bool dirty,
                  bool exclusive)
{
    Victim out;
    setData(place(addr, dirty, exclusive, out), data);
    return out;
}

FuncCache::Victim
FuncCache::insertNeverWritten(uint64_t addr, bool dirty, bool exclusive)
{
    Victim out;
    place(addr, dirty, exclusive, out).neverWritten = true;
    return out;
}

FuncCache::Victim
FuncCache::invalidate(uint64_t addr)
{
    uint64_t set = setIndex(addr);
    uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < assoc; ++w) {
        Line &line = lines[set * assoc + w];
        if (line.valid && line.tag == tag) {
            Victim out = victimOf(line, addr);
            line.valid = false;
            line.dirty = false;
            line.exclusive = false;
            return out;
        }
    }
    return {};
}

void
FuncCache::forEachLine(
    const std::function<void(uint64_t addr, Line &line)> &fn)
{
    for (uint64_t set = 0; set < sets; ++set) {
        for (unsigned w = 0; w < assoc; ++w) {
            Line &line = lines[set * assoc + w];
            if (line.valid)
                fn(addrOf(set, line.tag), line);
        }
    }
}

// ---------------------------------------------------------------------
// CacheHierarchy
// ---------------------------------------------------------------------

CacheHierarchy::CacheHierarchy(const std::string &name, EventQueue &eq,
                               statistics::Group *parent,
                               const HierarchyParams &params_,
                               MemSink &memory_)
    : SimObject(name, eq, parent), params(params_), memory(memory_),
      l3(params_.l3)
{
    for (unsigned c = 0; c < params.cores; ++c) {
        l1s.emplace_back(params.l1);
        l2s.emplace_back(params.l2);
    }

    stats().addScalar("l1Hits", &l1Hits, "L1 hits (all cores)");
    stats().addScalar("l2Hits", &l2Hits, "L2 hits (all cores)");
    stats().addScalar("l3Hits", &l3Hits, "shared L3 hits");
    stats().addScalar("llcMisses", &llcMisses, "demand LLC misses");
    stats().addScalar("writebacks", &writebacks,
                      "dirty blocks written back to memory");
    stats().addScalar("invalidations", &invalidations,
                      "coherence invalidations");
    stats().addScalar("downgrades", &downgrades,
                      "coherence downgrades (M/E -> S)");
    stats().addScalar("mshrMerges", &mshrMerges,
                      "misses merged into an in-flight MSHR");
    stats().addScalar("mshrStalls", &mshrStalls,
                      "accesses stalled on a full MSHR file");
    stats().addAverage("missLatencyNs", &missLatencyNs,
                       "LLC miss latency (issue to fill)");
}

void
CacheHierarchy::load(int core, uint64_t addr, Tick when, DoneCb cb)
{
    accessInternal(core, blockAlign(addr), false, nullptr, when,
                   std::move(cb));
}

void
CacheHierarchy::store(int core, uint64_t addr, const DataBlock &data,
                      Tick when, DoneCb cb)
{
    accessInternal(core, blockAlign(addr), true, &data, when,
                   std::move(cb));
}

void
CacheHierarchy::preload(int core, uint64_t addr)
{
    addr = blockAlign(addr);
    l3.insertNeverWritten(addr, false, false);
    DirEntry &entry = directory[addr];
    entry.sharers |= 1u << core;
    entry.exclusive = entry.sharers == (1u << core);
    l2s[core].insertNeverWritten(addr, false, entry.exclusive);
    l1s[core].insertNeverWritten(addr, false, entry.exclusive);
}

void
CacheHierarchy::preloadShared(uint64_t addr, bool dirty)
{
    l3.insertNeverWritten(blockAlign(addr), dirty, false);
}

Cycles
CacheHierarchy::enforceCoherence(int core, uint64_t addr,
                                 bool exclusive)
{
    auto it = directory.find(addr);
    if (it == directory.end())
        return 0;

    DirEntry &entry = it->second;
    uint32_t me = 1u << core;
    bool acted = false;

    if (exclusive) {
        for (unsigned o = 0; o < params.cores; ++o) {
            if (o == static_cast<unsigned>(core)
                || !(entry.sharers & (1u << o))) {
                continue;
            }
            FuncCache::Victim v = invalidatePrivate(static_cast<int>(o),
                                                    addr);
            ++invalidations;
            acted = true;
            if (v.valid && v.dirty) {
                if (auto *line = l3.find(addr)) {
                    l3.setData(*line, v.data());
                    line->dirty = true;
                }
            }
        }
        entry.sharers = me;
        entry.exclusive = true;
    } else if (entry.exclusive && !(entry.sharers & me)) {
        for (unsigned o = 0; o < params.cores; ++o) {
            if (o == static_cast<unsigned>(core)
                || !(entry.sharers & (1u << o))) {
                continue;
            }
            DataBlock dirty_data;
            if (downgradePrivate(static_cast<int>(o), addr,
                                 dirty_data)) {
                if (auto *line = l3.find(addr)) {
                    l3.setData(*line, dirty_data);
                    line->dirty = true;
                }
            }
            ++downgrades;
            acted = true;
        }
        entry.exclusive = false;
        entry.sharers |= me;
    } else {
        entry.sharers |= me;
    }

    return acted ? params.snoopLatencyCycles : 0;
}

void
CacheHierarchy::accessInternal(int core, uint64_t addr, bool is_store,
                               const DataBlock *store_data, Tick when,
                               DoneCb cb)
{
    const Tick period = params.corePeriod;
    FuncCache &l1 = l1s[core];
    FuncCache &l2 = l2s[core];

    // L1.
    if (FuncCache::Line *line = l1.find(addr)) {
        if (!is_store || line->exclusive) {
            ++l1Hits;
            if (is_store) {
                l1.setData(*line, *store_data);
                line->dirty = true;
            }
            cb(when + params.l1.latencyCycles * period);
            return;
        }
        // Store to a shared line: fall through as an upgrade.
    }

    // L2.
    Cycles lat = params.l1.latencyCycles + params.l2.latencyCycles;
    if (FuncCache::Line *line = l2.find(addr)) {
        if (!is_store || line->exclusive) {
            ++l2Hits;
            DataBlock data = is_store ? *store_data : l2.data(*line);
            // Promote into L1 (keep L2 copy: inclusive-ish).
            fillPrivate(core, addr, data, is_store || line->dirty,
                        line->exclusive, when);
            if (is_store) {
                line->dirty = false; // freshest copy now in L1
            }
            cb(when + lat * period);
            return;
        }
    }

    // Coherence point before the shared L3.
    Cycles snoop_lat = enforceCoherence(core, addr, is_store);
    lat += params.l3.latencyCycles + snoop_lat;

    // L3.
    if (FuncCache::Line *line = l3.find(addr)) {
        ++l3Hits;
        DirEntry &entry = directory[addr];
        entry.sharers |= 1u << core;
        bool exclusive_grant =
            is_store || entry.sharers == (1u << core);
        if (exclusive_grant)
            entry.exclusive = true;
        DataBlock data = is_store ? *store_data : l3.data(*line);
        fillPrivate(core, addr, data, is_store, exclusive_grant, when);
        cb(when + lat * period);
        return;
    }

    // LLC miss.
    auto it = mshrs.find(addr);
    if (it != mshrs.end()) {
        ++mshrMerges;
        it->second.exclusive |= is_store;
        it->second.waiters.push_back(
            {core, is_store, is_store ? *store_data : DataBlock{},
             std::move(cb)});
        return;
    }

    if (mshrs.size() >= params.llcMshrs) {
        ++mshrStalls;
        stalled.push_back({core, addr, is_store,
                           is_store ? *store_data : DataBlock{}, when,
                           std::move(cb)});
        return;
    }

    ++llcMisses;
    MshrEntry &entry = mshrs[addr];
    entry.exclusive = is_store;
    entry.waiters.push_back(
        {core, is_store, is_store ? *store_data : DataBlock{},
         std::move(cb)});
    sendMiss(addr, when + lat * period);
}

void
CacheHierarchy::sendMiss(uint64_t addr, Tick when)
{
    Tick issue = std::max(when, curTick());
    eventQueue().schedule(issue, [this, addr, issue]() {
        MemPacket pkt;
        pkt.id = nextPacketId++;
        pkt.cmd = MemCmd::Read;
        pkt.addr = addr;
        pkt.issueTick = issue;
        memory.access(std::move(pkt), [this](MemPacket &&resp) {
            handleFill(std::move(resp));
        });
    });
}

void
CacheHierarchy::handleFill(MemPacket &&pkt)
{
    uint64_t addr = pkt.addr;
    auto it = mshrs.find(addr);
    panic_if(it == mshrs.end(), "fill for unknown MSHR");
    MshrEntry entry = std::move(it->second);
    mshrs.erase(it);

    missLatencyNs.sample(ticksToNs(curTick() - pkt.issueTick));

    // Install in the shared L3 first.
    fillShared(addr, pkt.data, false, curTick());

    // Then satisfy waiters in arrival order.
    Tick done = curTick() + params.l3.latencyCycles * params.corePeriod;
    for (auto &waiter : entry.waiters) {
        Cycles snoop =
            enforceCoherence(waiter.core, addr, waiter.isStore);
        DirEntry &dir = directory[addr];
        dir.sharers |= 1u << waiter.core;
        bool exclusive_grant =
            waiter.isStore || dir.sharers == (1u << waiter.core);
        if (exclusive_grant)
            dir.exclusive = true;

        DataBlock data = pkt.data;
        bool dirty = false;
        if (waiter.isStore) {
            data = waiter.storeData;
            dirty = true;
        }
        fillPrivate(waiter.core, addr, data, dirty, exclusive_grant,
                    curTick());
        waiter.cb(done + snoop * params.corePeriod);
    }

    drainStalled();
}

void
CacheHierarchy::drainStalled()
{
    while (!stalled.empty() && mshrs.size() < params.llcMshrs) {
        Stalled s = std::move(stalled.front());
        stalled.pop_front();
        accessInternal(s.core, s.addr, s.isStore,
                       s.isStore ? &s.storeData : nullptr,
                       std::max(s.when, curTick()), std::move(s.cb));
    }
}

void
CacheHierarchy::fillPrivate(int core, uint64_t addr,
                            const DataBlock &data, bool dirty,
                            bool exclusive, Tick when)
{
    FuncCache &l1 = l1s[core];
    FuncCache &l2 = l2s[core];

    FuncCache::Victim v2 = l2.insert(addr, data, false, exclusive);
    if (v2.valid) {
        // L1 is inclusive in L2: drop the L1 copy too.
        FuncCache::Victim v1 = l1.invalidate(v2.addr);
        if (v1.valid && v1.dirty)
            v2 = v1;
        if (v2.dirty) {
            if (auto *line = l3.find(v2.addr)) {
                l3.setData(*line, v2.data());
                line->dirty = true;
            } else {
                // Inclusion was broken by an L3 eviction race; push
                // straight to memory.
                sendWriteback(v2.addr, v2.data(), when);
            }
        }
    }

    FuncCache::Victim v1 = l1.insert(addr, data, dirty, exclusive);
    if (v1.valid && v1.dirty) {
        if (auto *line = l2.find(v1.addr)) {
            l2.setData(*line, v1.data());
            line->dirty = true;
        } else if (auto *line3 = l3.find(v1.addr)) {
            l3.setData(*line3, v1.data());
            line3->dirty = true;
        } else {
            sendWriteback(v1.addr, v1.data(), when);
        }
    }
}

void
CacheHierarchy::fillShared(uint64_t addr, const DataBlock &data,
                           bool dirty, Tick when)
{
    FuncCache::Victim victim = l3.insert(addr, data, dirty, false);
    if (!victim.valid)
        return;

    // Inclusive L3: evicting a block expels it from every core.
    auto dir_it = directory.find(victim.addr);
    if (dir_it != directory.end()) {
        for (unsigned o = 0; o < params.cores; ++o) {
            if (!(dir_it->second.sharers & (1u << o)))
                continue;
            FuncCache::Victim pv =
                invalidatePrivate(static_cast<int>(o), victim.addr);
            ++invalidations;
            if (pv.valid && pv.dirty)
                victim = pv;
        }
        directory.erase(dir_it);
    }

    if (victim.dirty)
        sendWriteback(victim.addr, victim.data(), when);
}

FuncCache::Victim
CacheHierarchy::invalidatePrivate(int core, uint64_t addr)
{
    FuncCache::Victim v1 = l1s[core].invalidate(addr);
    FuncCache::Victim v2 = l2s[core].invalidate(addr);
    // The L1 copy, if dirty, is the freshest.
    if (v1.valid && v1.dirty)
        return v1;
    if (v2.valid && v2.dirty)
        return v2;
    return v1.valid ? v1 : v2;
}

bool
CacheHierarchy::downgradePrivate(int core, uint64_t addr,
                                 DataBlock &out)
{
    bool dirty = false;
    if (FuncCache::Line *line = l1s[core].find(addr)) {
        line->exclusive = false;
        if (line->dirty) {
            out = l1s[core].data(*line);
            dirty = true;
            line->dirty = false;
        }
    }
    if (FuncCache::Line *line = l2s[core].find(addr)) {
        line->exclusive = false;
        if (line->dirty && !dirty) {
            out = l2s[core].data(*line);
            dirty = true;
        }
        line->dirty = false;
    }
    return dirty;
}

void
CacheHierarchy::sendWriteback(uint64_t addr, const DataBlock &data,
                              Tick when)
{
    ++writebacks;
    ++outstandingWritebacks;
    Tick issue = std::max(when, curTick());
    eventQueue().schedule(issue, [this, addr, data, issue]() {
        MemPacket pkt;
        pkt.id = nextPacketId++;
        pkt.cmd = MemCmd::Write;
        pkt.addr = addr;
        pkt.data = data;
        pkt.issueTick = issue;
        memory.access(std::move(pkt), [this](MemPacket &&) {
            --outstandingWritebacks;
            if (outstandingWritebacks == 0 && !flushWaiters.empty()) {
                auto waiters = std::move(flushWaiters);
                flushWaiters.clear();
                for (auto &cb : waiters)
                    cb(curTick());
            }
        });
    });
}

void
CacheHierarchy::flushAll(Tick when, DoneCb cb)
{
    // Merge private dirty data into L3.
    for (unsigned c = 0; c < params.cores; ++c) {
        for (FuncCache *cache : {&l1s[c], &l2s[c]}) {
            cache->forEachLine([this, cache](uint64_t addr,
                                             FuncCache::Line &line) {
                if (!line.dirty)
                    return;
                const DataBlock &data = cache->data(line);
                if (auto *l3line = l3.find(addr)) {
                    l3.setData(*l3line, data);
                    l3line->dirty = true;
                } else {
                    fillShared(addr, data, true, curTick());
                }
                line.dirty = false;
            });
        }
    }

    // Write back every dirty L3 line.
    l3.forEachLine([this, when](uint64_t addr, FuncCache::Line &line) {
        if (line.dirty) {
            sendWriteback(addr, l3.data(line), when);
            line.dirty = false;
        }
    });

    if (outstandingWritebacks == 0) {
        cb(curTick());
    } else {
        flushWaiters.push_back(std::move(cb));
    }
}

bool
CacheHierarchy::wouldMiss(int core, uint64_t addr) const
{
    addr = blockAlign(addr);
    return l1s[core].peek(addr) == nullptr
           && l2s[core].peek(addr) == nullptr
           && l3.peek(addr) == nullptr;
}

bool
CacheHierarchy::peekBlock(uint64_t addr, DataBlock &out) const
{
    addr = blockAlign(addr);
    // Dirty private copies are the freshest.
    for (unsigned c = 0; c < params.cores; ++c) {
        if (const auto *line = l1s[c].peek(addr)) {
            if (line->dirty) {
                out = l1s[c].data(*line);
                return true;
            }
        }
        if (const auto *line = l2s[c].peek(addr)) {
            if (line->dirty) {
                out = l2s[c].data(*line);
                return true;
            }
        }
    }
    for (unsigned c = 0; c < params.cores; ++c) {
        if (const auto *line = l1s[c].peek(addr)) {
            out = l1s[c].data(*line);
            return true;
        }
        if (const auto *line = l2s[c].peek(addr)) {
            out = l2s[c].data(*line);
            return true;
        }
    }
    if (const auto *line = l3.peek(addr)) {
        out = l3.data(*line);
        return true;
    }
    return false;
}

} // namespace obfusmem
