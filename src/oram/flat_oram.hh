/**
 * @file
 * Functional Flat ORAM (Haider & van Dijk, PAPERS.md): a simplified
 * *write-only* ORAM for secure processors.
 *
 * Memory is one flat array of physical slots, sized 1/utilization
 * times the logical capacity. A position map (on-controller, like the
 * PosMap Lookaside Buffer of the paper) records where each logical
 * block currently lives, and an occupancy map records which slots are
 * free. Every write places the new version of the block at a
 * *uniformly random free slot* and frees the old one, so the sequence
 * of written physical locations is independent of the addresses the
 * program writes - the write-only obliviousness argument. Reads go
 * straight to the mapped slot; the threat model (an adversary that
 * observes writes, e.g. NVM residue or a write-snooping bus tap)
 * deliberately leaves the read pattern unprotected, which is what
 * buys the ~1x overhead vs Path ORAM's ~100 blocks per access.
 *
 * Unlike Path ORAM there is no stash and no eviction: a write always
 * succeeds as long as a free slot exists, so the only fail-stop is
 * the probe bound (astronomically unlikely at design utilization).
 */

#ifndef OBFUSMEM_ORAM_FLAT_ORAM_HH
#define OBFUSMEM_ORAM_FLAT_ORAM_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/packet.hh"
#include "util/random.hh"

namespace obfusmem {

/**
 * The functional Flat ORAM structure.
 */
class FlatOram
{
  public:
    struct Params
    {
        /** Logical blocks the structure serves. */
        uint64_t capacityBlocks = 1ull << 15;
        /**
         * Fraction of physical slots that may hold live blocks
         * (paper: 50% keeps the expected probe count at 2).
         * Physical slots = capacityBlocks / utilization.
         */
        double utilization = 0.5;
        /**
         * Fail-stop bound on random occupancy probes per write. At
         * 50% utilization the probability of exhausting 128 probes
         * is 2^-128; hitting it means the structure was driven past
         * its design point (live blocks ~ physical slots).
         */
        unsigned maxProbes = 128;
        uint64_t seed = 1;
    };

    explicit FlatOram(const Params &params);

    /** Read a logical block (junk if never written). */
    DataBlock read(uint64_t block_id);

    /** Write a logical block to a fresh uniformly random free slot. */
    void write(uint64_t block_id, const DataBlock &data);

    uint64_t capacityBlocks() const { return params.capacityBlocks; }
    uint64_t physicalBlocks() const { return physSlots; }

    /** Physical slots read by the most recent access. */
    const std::vector<uint64_t> &lastReadSlots() const
    {
        return lastReads;
    }

    /** Physical slots written by the most recent access. */
    const std::vector<uint64_t> &lastWriteSlots() const
    {
        return lastWrites;
    }

    uint64_t accesses() const { return accessCount; }
    uint64_t physicalWrites() const { return physWrites; }
    uint64_t physicalReads() const { return physReads; }
    /** Occupancy probes of the most recent write (>= 1). */
    unsigned lastProbeCount() const { return lastProbes; }
    unsigned maxProbeCount() const { return maxProbesSeen; }

    /** Fraction of physical slots holding live blocks. */
    double occupancy() const
    {
        return static_cast<double>(posMap.size()) / physSlots;
    }

    /** The current slot of a block (for tests). */
    std::optional<uint64_t> slotOf(uint64_t block_id) const;

    /**
     * Structural invariant: the position map, slot owners, and
     * occupancy count agree, and no two blocks share a slot.
     */
    bool checkInvariant() const;

    /** Checkpoint the functional state (incl. the RNG stream). */
    void serialize(std::ostream &os) const;
    /**
     * Restore from serialize() output; false on format mismatch or a
     * state failing checkInvariant().
     */
    bool deserialize(std::istream &is);

  private:
    static constexpr uint64_t kFree = ~uint64_t{0};

    Params params;
    uint64_t physSlots;

    std::vector<DataBlock> slotData;
    /** Owning logical block per slot, or kFree. */
    std::vector<uint64_t> slotBlock;
    std::unordered_map<uint64_t, uint64_t> posMap;

    Random rng;
    uint64_t accessCount = 0;
    uint64_t physWrites = 0;
    uint64_t physReads = 0;
    unsigned lastProbes = 0;
    unsigned maxProbesSeen = 0;
    std::vector<uint64_t> lastReads;
    std::vector<uint64_t> lastWrites;
};

} // namespace obfusmem

#endif // OBFUSMEM_ORAM_FLAT_ORAM_HH
