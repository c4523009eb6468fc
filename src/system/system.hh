/**
 * @file
 * Top-level simulated system: cores, caches, the configured
 * protection path, channel buses, PCM, and the attacker's probe.
 * This is the main entry point of the library's public API.
 */

#ifndef OBFUSMEM_SYSTEM_SYSTEM_HH
#define OBFUSMEM_SYSTEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "check/trace_auditor.hh"
#include "cpu/core.hh"
#include "mem/backing_store.hh"
#include "mem/packet_pool.hh"
#include "obfusmem/mem_side.hh"
#include "obfusmem/plain_path.hh"
#include "obfusmem/proc_side.hh"
#include "system/config.hh"
#include "system/oblivious_backend.hh"

namespace obfusmem {

/**
 * A fully wired simulated machine.
 */
class System
{
  public:
    /** Summary of one simulation run. */
    struct RunResult
    {
        Tick execTicks = 0;
        uint64_t instructions = 0;
        uint64_t llcMisses = 0;
        /** Per-core IPC (cores are homogeneous). */
        double ipc = 0;
        /** Demand LLC misses per kilo-instruction. */
        double mpki = 0;
        /** Average gap between LLC misses in nanoseconds. */
        double avgGapNs = 0;
        /** PCM cell-write blocks (wear). */
        uint64_t cellWrites = 0;
        /** PCM array energy (normalized pJ). */
        double pcmEnergyPj = 0;
        /** Mean data-bus utilization across channels. */
        double busUtilization = 0;

        double execMs() const
        {
            return static_cast<double>(execTicks) / tickPerMs;
        }
    };

    explicit System(const SystemConfig &config);
    ~System();

    /** Run every core to completion and drain the memory system. */
    RunResult run();

    /**
     * Issue a timed load/store directly (without cores); useful for
     * tests and examples that drive the memory system by hand.
     */
    void timedLoad(int core, uint64_t addr, CacheHierarchy::DoneCb cb);
    void timedStore(int core, uint64_t addr, const DataBlock &data,
                    CacheHierarchy::DoneCb cb);

    /** Write back all dirty cache state and drain the event queue. */
    void flushAndDrain();

    /**
     * Functional read with decryption: caches first, then memory via
     * the mode's crypto (test/verification path).
     */
    DataBlock functionalRead(uint64_t addr);

    /**
     * Checkpoint / restore the protection path's functional state
     * (position maps, stashes, counters, RNG streams) through the
     * backend's serialize vtable half. Restore requires a system
     * built with the same mode and geometry.
     */
    void serializeBackend(std::ostream &os) const
    {
        protBackend->serialize(os);
    }

    bool restoreBackend(std::istream &is)
    {
        return protBackend->deserialize(is);
    }

    // --- Component access (tests, benches, examples) -----------------

    EventQueue &eventQueue() { return eq; }
    /**
     * The configured protection path's entry point (what the LLC
     * talks to). External drivers — the multi-tenant topology's
     * tenant generators — issue timed requests here directly,
     * modelling an LLC-miss stream without the core/cache machinery.
     */
    MemSink &memorySink() { return *memoryPath; }
    statistics::Group &rootStats() { return root; }
    CacheHierarchy &hierarchy() { return *caches; }
    BackingStore &backingStore() { return *store; }
    /**
     * The attacker's probe on the buses (null when neither
     * attachObserver nor attachAuditor is set, or without buses).
     */
    check::TraceAuditor *auditor() { return traceAuditor.get(); }
    /** The assembled protection path (never null). */
    ObliviousBackend &backend() { return *protBackend; }
    ObfusMemProcSide *procSide() { return protBackend->procSide(); }
    std::vector<std::unique_ptr<ObfusMemMemSide>> &memSides()
    {
        auto *sides = protBackend->memSides();
        return sides ? *sides : noMemSides;
    }
    std::vector<std::unique_ptr<PcmController>> &pcmControllers()
    {
        return pcms;
    }
    std::vector<std::unique_ptr<ChannelBus>> &channelBuses()
    {
        return buses;
    }
    const SystemConfig &config() const { return cfg; }

    /** Dump all statistics to a stream. */
    void dumpStats(std::ostream &os) const { root.dump(os); }

  private:
    void buildMemoryPath();
    void buildCores();

    SystemConfig cfg;
    EventQueue eq;
    PacketPool pktPool;
    statistics::Group root;

    std::unique_ptr<AddressMap> map;
    std::unique_ptr<BackingStore> store;
    std::vector<std::unique_ptr<ChannelBus>> buses;
    std::vector<std::unique_ptr<PcmController>> pcms;
    std::unique_ptr<check::TraceAuditor> traceAuditor;
    std::unique_ptr<FaultInjector> faultInjector;

    std::vector<crypto::Aes128::Key> channelKeys;
    std::unique_ptr<ObliviousBackend> protBackend;
    /** Fallback for memSides() on backends without ObfusMem sides. */
    std::vector<std::unique_ptr<ObfusMemMemSide>> noMemSides;

    /** The sink the cache hierarchy talks to. */
    MemSink *memoryPath = nullptr;

    std::unique_ptr<CacheHierarchy> caches;
    std::vector<std::unique_ptr<TraceCore>> cores;
    unsigned coresFinished = 0;
    Tick lastFinish = 0;
};

} // namespace obfusmem

#endif // OBFUSMEM_SYSTEM_SYSTEM_HH
