/**
 * @file
 * Timing models for the ORAM-family baselines.
 *
 * OramFixedLatency reproduces the paper's deliberately *optimistic*
 * evaluation model: every LLC miss or writeback costs a fixed 2500 ns
 * (extrapolated from Freecursive ORAM [20]) with unlimited bandwidth,
 * while still accounting the path's block reads/writes for the
 * energy/lifetime analysis of Sec. 5.2.
 *
 * The detailed controllers all share OramPhasedController: a
 * functional structure plans each access as a set of physical block
 * reads followed by a set of physical block writes, and the base
 * class issues every one of those transfers through the channel/PCM
 * substrate below (a PlainPath over buses and PCM), serializing
 * accesses like a real single-ported controller.
 *
 *  - OramDetailed drives the functional Path ORAM: (L+1)*Z reads then
 *    (L+1)*Z writes per access.
 *  - FlatOramController drives Flat ORAM: one read per read access,
 *    one write (to a random free slot) per write access.
 *  - WriteOnlyOramController drives the deterministic write-only
 *    ORAM: one read per read access, exactly two writes (holding +
 *    round-robin refresh) per write access.
 */

#ifndef OBFUSMEM_ORAM_ORAM_CONTROLLER_HH
#define OBFUSMEM_ORAM_ORAM_CONTROLLER_HH

#include <deque>

#include "mem/backing_store.hh"
#include "mem/packet.hh"
#include "oram/flat_oram.hh"
#include "oram/path_oram.hh"
#include "oram/write_only_oram.hh"
#include "sim/sim_object.hh"

namespace obfusmem {

/**
 * The paper's fixed-latency ORAM model.
 */
class OramFixedLatency : public SimObject, public MemSink
{
  public:
    struct Params
    {
        /** Fixed access latency (paper Sec. 4: 2500 ns). */
        Tick accessLatency = 2500 * tickPerNs;
        /**
         * Initiation interval of the (pipelined) ORAM controller:
         * the serial stash/PosMap logic limits how often a new path
         * access can start, even under the paper's optimistic
         * unlimited-bandwidth assumption.
         */
        Tick initiationInterval = 300 * tickPerNs;
        /** Path geometry for the side accounting (L=24, Z=4). */
        unsigned levels = 24;
        unsigned bucketSize = 4;
    };

    OramFixedLatency(const std::string &name, EventQueue &eq,
                     statistics::Group *parent, const Params &params,
                     BackingStore &store);

    void access(MemPacket pkt, PacketCallback cb) override;

    /** Path blocks transferred per access: (L+1)*Z each way. */
    uint64_t pathBlocks() const
    {
        return static_cast<uint64_t>(params.levels + 1)
               * params.bucketSize;
    }

  private:
    Params params;
    BackingStore &store;
    Tick nextStartAt = 0;

    statistics::Scalar accesses;
    statistics::Scalar pathBlocksRead;
    statistics::Scalar pathBlocksWritten;
};

/**
 * Shared timing machinery for the detailed (substrate-driving)
 * ORAM-family controllers.
 *
 * A subclass implements planAccess(): perform the functional access
 * and report the physical slots to read and to write. The base class
 * then issues all reads through the memory below, then all writes,
 * then completes the request after perBlockLatency of on-chip
 * processing - the same two-phase shape for every model, so their
 * wire traces differ only in what the functional structures demand.
 *
 * Each subclass also exposes its functional structure as oram() and
 * its address-to-block mapping as blockOf(); the ORAM backend
 * (system/oblivious_backend.cc) drives every model through those.
 */
class OramPhasedController : public SimObject, public MemSink
{
  public:
    void access(MemPacket pkt, PacketCallback cb) override;

  protected:
    /** The physical-transfer plan of one functional access. */
    struct AccessPlan
    {
        /** Data to return to the requester (for reads). */
        DataBlock result{};
        /** Physical slot indices to read, in issue order. */
        std::vector<uint64_t> readSlots;
        /** Physical slot indices to write, in issue order. */
        std::vector<uint64_t> writeSlots;
    };

    /**
     * @param region_base Physical base address of the model's slots
     *        in the memory below.
     */
    OramPhasedController(const std::string &name, EventQueue &eq,
                         statistics::Group *parent, MemSink &memory,
                         uint64_t region_base);

    /**
     * Perform the functional access for @p pkt and return the plan.
     * Called once per request, in request order.
     */
    virtual AccessPlan planAccess(const MemPacket &pkt) = 0;

    /** Physical address of a slot index inside this model's region. */
    uint64_t slotAddr(uint64_t slot) const
    {
        return regionBase + slot * blockBytes;
    }

  private:
    struct QueuedAccess
    {
        MemPacket pkt;
        PacketCallback cb;
    };

    void startNext();

    /** On-chip processing per access (decrypt, stash/PosMap logic). */
    static constexpr Tick perBlockLatency = 2 * tickPerNs;

    MemSink &memory;
    uint64_t regionBase;

    std::deque<QueuedAccess> queue;
    bool busy = false;

    statistics::Scalar accesses;
    statistics::Scalar physicalTransfers;
    statistics::Average accessLatencyNs;
    statistics::Scalar logicalWrites;
    statistics::Scalar physicalWrites;
};

/**
 * Detailed Path ORAM: serial path reads/writes against the real
 * memory substrate below.
 */
class OramDetailed : public OramPhasedController
{
  public:
    struct Params
    {
        PathOram::Params oram{};
    };

    OramDetailed(const std::string &name, EventQueue &eq,
                 statistics::Group *parent, const Params &params,
                 MemSink &memory, uint64_t region_base);

    /** Logical block that @p addr names: one tree block per line. */
    uint64_t blockOf(uint64_t addr) const { return addr / blockBytes; }

    PathOram &oram() { return tree; }
    const PathOram &oram() const { return tree; }

  protected:
    AccessPlan planAccess(const MemPacket &pkt) override;

  private:
    Params params;
    PathOram tree;

    statistics::Average stashOccupancy;
    statistics::Average stashPeakOccupancy;
    statistics::Scalar maxStash;
    statistics::Scalar maxTransientStash;
};

/**
 * Detailed Flat ORAM (write-only): one substrate read per read, one
 * substrate write to a uniformly random free slot per write.
 */
class FlatOramController : public OramPhasedController
{
  public:
    struct Params
    {
        FlatOram::Params oram{};
    };

    FlatOramController(const std::string &name, EventQueue &eq,
                       statistics::Group *parent, const Params &params,
                       MemSink &memory, uint64_t region_base);

    /**
     * Logical block that @p addr names. The flat array serves a
     * bounded block space; addresses alias into it, like a set of
     * ORAM-backed ways would.
     */
    uint64_t blockOf(uint64_t addr) const
    {
        return (addr / blockBytes) % flat.capacityBlocks();
    }

    FlatOram &oram() { return flat; }
    const FlatOram &oram() const { return flat; }

  protected:
    AccessPlan planAccess(const MemPacket &pkt) override;

  private:
    FlatOram flat;

    statistics::Average writeProbes;
};

/**
 * Detailed deterministic write-only ORAM: one substrate read per
 * read; per write, the fixed holding-slot + round-robin-refresh pair
 * whose addresses depend only on the write count.
 */
class WriteOnlyOramController : public OramPhasedController
{
  public:
    struct Params
    {
        WriteOnlyOram::Params oram{};
    };

    WriteOnlyOramController(const std::string &name, EventQueue &eq,
                            statistics::Group *parent,
                            const Params &params, MemSink &memory,
                            uint64_t region_base);

    /** Logical block that @p addr names, aliased like Flat ORAM's. */
    uint64_t blockOf(uint64_t addr) const
    {
        return (addr / blockBytes) % wo.capacityBlocks();
    }

    WriteOnlyOram &oram() { return wo; }
    const WriteOnlyOram &oram() const { return wo; }

  protected:
    AccessPlan planAccess(const MemPacket &pkt) override;

  private:
    WriteOnlyOram wo;

    statistics::Average holdingOccupancy;
};

} // namespace obfusmem

#endif // OBFUSMEM_ORAM_ORAM_CONTROLLER_HH
