/**
 * @file
 * Three-level cache hierarchy from the paper's Table 2: per-core L1
 * (32 KB, 8-way, 2 cycles) and L2 (512 KB, 8-way, 8 cycles), shared
 * inclusive L3 (8 MB, 8-way, 17 cycles), MESI-style coherence via an
 * L3 directory.
 *
 * Cache tag/data state is functional (synchronous); only LLC misses
 * and writebacks enter the timed memory system below, which keeps the
 * event count proportional to memory traffic — the part of the system
 * ObfusMem actually changes.
 */

#ifndef OBFUSMEM_CPU_CACHE_HIERARCHY_HH
#define OBFUSMEM_CPU_CACHE_HIERARCHY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/packet.hh"
#include "sim/sim_object.hh"

namespace obfusmem {

/** Geometry and latency of one cache level. */
struct CacheParams
{
    uint64_t sizeBytes;
    unsigned assoc;
    Cycles latencyCycles;
};

/** Parameters of the whole hierarchy (defaults = paper Table 2). */
struct HierarchyParams
{
    CacheParams l1{32 * 1024, 8, 2};
    CacheParams l2{512 * 1024, 8, 8};
    CacheParams l3{8 * 1024 * 1024, 8, 17};
    /** System sets this from SystemConfig::cores. */
    unsigned cores = 4;
    unsigned llcMshrs = 32;
    Cycles snoopLatencyCycles = 10;
    Tick corePeriod = 500; // 2 GHz
};

/**
 * A functional set-associative cache with per-line MESI-ish state.
 *
 * Tag, LRU and state bits live in one array and the 64 B blocks in a
 * parallel one that is allocated without initialization, so probing
 * a set touches no data and block pages nothing has filled are never
 * faulted in. A line can be *never-written*: its data is then
 * neverWrittenBlock() of its address, produced the first time data()
 * reads it and cleared by any write.
 */
class FuncCache
{
  public:
    /** Tag, replacement and coherence state of one way. */
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lruStamp = 0;
        bool valid = false;
        bool dirty = false;
        bool exclusive = false;
        /**
         * Data not produced yet: it is neverWrittenBlock(address).
         * Mutable because the const data() produces it.
         */
        mutable bool neverWritten = false;
    };

    /**
     * A line displaced by insert() or removed by invalidate(). Only a
     * dirty victim hands out data (no caller reads a clean one's);
     * a never-written victim's is produced only if data() is called,
     * so a dropped victim moves no bytes.
     */
    class Victim
    {
      public:
        bool valid = false;
        uint64_t addr = 0;
        bool dirty = false;

        /** The data of a dirty victim. */
        DataBlock data() const;

      private:
        friend class FuncCache;
        bool neverWritten = false;
        DataBlock block{};
    };

    FuncCache(const CacheParams &params);

    /** Find a block; returns nullptr on miss. Updates LRU on hit. */
    Line *find(uint64_t addr);
    const Line *peek(uint64_t addr) const;

    /**
     * A valid line's data. A never-written line's is produced here
     * and kept, which changes no value the cache holds.
     */
    const DataBlock &data(const Line &line) const;

    /** Overwrite a valid line's data. */
    void setData(Line &line, const DataBlock &data);

    /** Insert a block, possibly displacing an LRU victim. */
    Victim insert(uint64_t addr, const DataBlock &data, bool dirty,
                  bool exclusive);

    /**
     * Insert a never-written block: its data is neverWrittenBlock()
     * of @p addr, which is produced only when read.
     */
    Victim insertNeverWritten(uint64_t addr, bool dirty,
                              bool exclusive);

    /** Remove a block; returns its dirtiness (and data if dirty). */
    Victim invalidate(uint64_t addr);

    /** Iterate every valid line (for flushes). */
    void forEachLine(
        const std::function<void(uint64_t addr, Line &line)> &fn);

    uint64_t numSets() const { return sets; }
    unsigned associativity() const { return assoc; }

  private:
    uint64_t setIndex(uint64_t addr) const;
    uint64_t tagOf(uint64_t addr) const;
    uint64_t addrOf(uint64_t set, uint64_t tag) const;
    /** Index of @p line in `lines` and of its block in `blocks`. */
    size_t slot(const Line &line) const;

    /**
     * Find or allocate @p addr's line and set its state; the data is
     * left to the caller. A displaced line is described in @p victim.
     */
    Line &place(uint64_t addr, bool dirty, bool exclusive,
                Victim &victim);

    /** Describe a line that is about to be dropped. */
    Victim victimOf(const Line &line, uint64_t addr) const;

    uint64_t sets;
    unsigned assoc;
    std::vector<Line> lines;
    /** One block per line; a slot is written before it is read. */
    std::unique_ptr<DataBlock[]> blocks;
    uint64_t lruCounter = 0;
};

/**
 * The full multi-core hierarchy. Loads/stores resolve synchronously on
 * cache hits; LLC misses become timed MemPackets sent to the memory
 * sink (the protection layer), and the completion callback carries the
 * tick at which the data is usable by the core.
 */
class CacheHierarchy : public SimObject
{
  public:
    using DoneCb = std::function<void(Tick done)>;

    CacheHierarchy(const std::string &name, EventQueue &eq,
                   statistics::Group *parent,
                   const HierarchyParams &params, MemSink &memory);

    /**
     * Issue a load.
     *
     * @param core Issuing core id.
     * @param addr Byte address (block-aligned internally).
     * @param when Tick at which the core issues the access (may be in
     *             the future relative to curTick()).
     * @param cb Called with the completion tick.
     */
    void load(int core, uint64_t addr, Tick when, DoneCb cb);

    /** Issue a full-block store (write-allocate, exclusive). */
    void store(int core, uint64_t addr, const DataBlock &data,
               Tick when, DoneCb cb);

    /**
     * Functionally install a clean block in a core's caches and the
     * L3 (warm-up modelling, equivalent to the paper's fast-forward
     * phase). No timing, no memory traffic. Only tags are installed:
     * the lines are never-written, so warm-up must come before any
     * write to memory (their data is the backing store's content for
     * a block nothing has written).
     */
    void preload(int core, uint64_t addr);

    /**
     * Functionally install a never-written block in the shared L3
     * only, optionally dirty — used to model the steady-state cache
     * contents of a long-running streaming workload (dirty victims
     * then produce writeback traffic from the start of measurement).
     * Displaced preload victims are silently dropped.
     */
    void preloadShared(uint64_t addr, bool dirty);

    /**
     * Write back all dirty state to memory; cb fires when every
     * writeback has been acknowledged.
     */
    void flushAll(Tick when, DoneCb cb);

    /**
     * Functional (zero-time) read for checking: consults caches from
     * L1 to L3; returns false if the block is not cached anywhere (the
     * caller should then consult memory through the protection layer).
     */
    bool peekBlock(uint64_t addr, DataBlock &out) const;

    /**
     * Tag-only probe: would this access miss all cache levels? Used
     * by the core's store-buffer model (a store miss blocks the
     * in-order store-buffer head; hits drain immediately).
     */
    bool wouldMiss(int core, uint64_t addr) const;

    uint64_t llcMissCount() const
    {
        return static_cast<uint64_t>(llcMisses.value());
    }

    uint64_t llcAccessCount() const
    {
        return static_cast<uint64_t>(l3Hits.value() + llcMisses.value());
    }

    unsigned numCores() const { return params.cores; }

  private:
    struct MshrEntry
    {
        bool exclusive = false;
        struct Waiter
        {
            int core;
            bool isStore;
            DataBlock storeData;
            DoneCb cb;
        };
        std::vector<Waiter> waiters;
    };

    struct DirEntry
    {
        uint32_t sharers = 0;
        bool exclusive = false;
    };

    /** Common load/store path. */
    void accessInternal(int core, uint64_t addr, bool is_store,
                        const DataBlock *store_data, Tick when,
                        DoneCb cb);

    /** Handle coherence before touching L3; returns extra latency. */
    Cycles enforceCoherence(int core, uint64_t addr, bool exclusive);

    /** Insert into a core's private caches, handling evictions. */
    void fillPrivate(int core, uint64_t addr, const DataBlock &data,
                     bool dirty, bool exclusive, Tick when);

    /** Insert into L3, handling inclusive back-invalidation. */
    void fillShared(uint64_t addr, const DataBlock &data, bool dirty,
                    Tick when);

    /** Remove the block from core's L1+L2, merging dirty data out. */
    FuncCache::Victim invalidatePrivate(int core, uint64_t addr);

    /** Clear exclusivity in core's private caches; pull dirty data. */
    bool downgradePrivate(int core, uint64_t addr, DataBlock &out);

    /** Issue a timed writeback packet to memory. */
    void sendWriteback(uint64_t addr, const DataBlock &data, Tick when);

    /** Send the LLC miss to memory (MSHR already allocated). */
    void sendMiss(uint64_t addr, Tick when);

    /** Fill returned from memory: satisfy waiters, update caches. */
    void handleFill(MemPacket &&pkt);

    /** Retry accesses stalled on a full MSHR file. */
    void drainStalled();

    HierarchyParams params;
    MemSink &memory;

    std::vector<FuncCache> l1s;
    std::vector<FuncCache> l2s;
    FuncCache l3;

    std::unordered_map<uint64_t, DirEntry> directory;
    std::unordered_map<uint64_t, MshrEntry> mshrs;

    struct Stalled
    {
        int core;
        uint64_t addr;
        bool isStore;
        DataBlock storeData;
        Tick when;
        DoneCb cb;
    };
    std::deque<Stalled> stalled;

    unsigned outstandingWritebacks = 0;
    std::vector<DoneCb> flushWaiters;
    uint64_t nextPacketId = 1;

    statistics::Scalar l1Hits, l2Hits, l3Hits, llcMisses;
    statistics::Scalar writebacks, invalidations, downgrades;
    statistics::Scalar mshrMerges, mshrStalls;
    statistics::Average missLatencyNs;
};

} // namespace obfusmem

#endif // OBFUSMEM_CPU_CACHE_HIERARCHY_HH
