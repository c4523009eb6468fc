/**
 * @file
 * Functional Path ORAM (Stefanov et al. [47]), the baseline the paper
 * compares against.
 *
 * A binary tree of buckets (Z blocks each) backs a logical block
 * space; the PosMap assigns every logical block to a leaf, and the
 * invariant is that a block mapped to leaf l lives in some bucket on
 * the root-to-l path or in the stash. Every access reads the whole
 * path into the stash, remaps the block to a fresh random leaf, and
 * greedily evicts stash blocks back onto the old path.
 */

#ifndef OBFUSMEM_ORAM_PATH_ORAM_HH
#define OBFUSMEM_ORAM_PATH_ORAM_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/packet.hh"
#include "util/random.hh"
#include "util/stats.hh"

namespace obfusmem {

/**
 * Deterministic "uninitialized memory" content for the first read of
 * a never-written block, shared by every functional ORAM structure so
 * first-touch junk is identical across backends.
 */
DataBlock junkDataBlock(uint64_t block_id);

/**
 * The functional Path ORAM structure.
 */
class PathOram
{
  public:
    struct Params
    {
        /** Tree levels L: the tree has 2^L leaves, L+1 bucket levels.
         * The paper's 8 GB configuration uses L=24; tests use less. */
        unsigned levels = 12;
        /** Blocks per bucket (Z=4 in the paper). */
        unsigned bucketSize = 4;
        /**
         * Stash capacity before declaring overflow (deadlock). The
         * limit is enforced against the mid-access transient peak -
         * path read-in plus the accessed block, before write-back
         * eviction - because that is the occupancy a hardware stash
         * must physically hold.
         */
        size_t stashLimit = 256;
        /**
         * Overflow policy. A real ORAM controller that exceeds its
         * stash deadlocks (eviction cannot make progress), so by
         * default an overflow fail-stops via OBF_ASSERT rather than
         * silently continuing with an impossible stash. The ablation
         * that *measures* overflow frequency past the design point
         * (and table4's deadlock probe) opts out, in which case
         * overflowing accesses are only counted in stashOverflows().
         */
        bool failOnOverflow = true;
        uint64_t seed = 1;
    };

    /** Identifier of one physical slot in the tree. */
    struct SlotRef
    {
        uint64_t bucket;
        unsigned slot;
    };

    explicit PathOram(const Params &params);

    /** Read a logical block (junk if never written). */
    DataBlock read(uint64_t block_id);

    /** Write a logical block. */
    void write(uint64_t block_id, const DataBlock &data);

    /**
     * Number of logical blocks the tree supports at 50% utilization
     * (the paper's "at least 100% storage overhead").
     */
    uint64_t capacityBlocks() const;

    /** Total physical blocks in the tree (real + dummy slots). */
    uint64_t physicalBlocks() const
    {
        return numBuckets * params.bucketSize;
    }

    /** Blocks on one path (the per-access read/write amplification). */
    uint64_t pathBlocks() const
    {
        return static_cast<uint64_t>(params.levels + 1)
               * params.bucketSize;
    }

    /** Buckets (not blocks) on one path. */
    unsigned pathBuckets() const { return params.levels + 1; }

    /** Physical slots touched by the most recent access, in order. */
    const std::vector<SlotRef> &lastPathSlots() const
    {
        return lastSlots;
    }

    size_t stashSize() const { return stash.size(); }
    /** Largest stash occupancy observed *after* write-back eviction. */
    size_t maxStashSize() const { return maxStash; }
    /**
     * Largest mid-access stash occupancy: path read-in plus the
     * accessed block, sampled before eviction. This transient peak is
     * what sizes a hardware stash; it is always >= maxStashSize().
     */
    size_t maxTransientStashSize() const { return maxTransientStash; }
    /** Mid-access peak of the most recent access (for stats). */
    size_t lastAccessPeakStash() const { return lastPeakStash; }
    uint64_t stashOverflows() const { return overflows; }
    uint64_t accesses() const { return accessCount; }

    /**
     * Check the Path ORAM invariant for every mapped block: it must
     * be in the stash or in a bucket on its assigned path.
     */
    bool checkInvariant() const;

    /** Fraction of tree slots holding real blocks. */
    double occupancy() const;

    /** The current leaf assignment of a block (for tests). */
    std::optional<uint64_t> leafOf(uint64_t block_id) const;

    /**
     * Checkpoint the full functional state (geometry, position map,
     * stash, tree contents, RNG stream) to a binary stream; a
     * restored instance is bit-identical going forward. The
     * ObliviousBackend vtable's serialize half calls this.
     */
    void serialize(std::ostream &os) const;

    /**
     * Restore from serialize() output. Returns false (leaving the
     * structure unspecified) on a malformed stream, a geometry
     * mismatch with this instance's params, a leaf >= 2^L, a slot
     * index >= physicalBlocks() or a state failing checkInvariant().
     */
    bool deserialize(std::istream &is);

  private:
    /** The real block one tree slot holds. */
    struct Slot
    {
        uint64_t blockId = 0;
        uint64_t leaf = 0;
        DataBlock data{};
    };

    struct StashEntry
    {
        uint64_t leaf;
        DataBlock data;
    };

    /** Index of the bucket at `level` on the path to `leaf`. */
    uint64_t bucketOnPath(uint64_t leaf, unsigned level) const;

    /** Core access: fetch path, remap, evict. */
    DataBlock access(uint64_t block_id, const DataBlock *new_data);

    Params params;
    uint64_t numLeaves;
    uint64_t numBuckets;
    /**
     * Occupied tree slots, keyed by slot index (bucket * Z + s); an
     * absent index is an empty (dummy) slot. Memory follows the
     * blocks a run places, not the 2^(L+1) * Z declared slots.
     */
    std::unordered_map<uint64_t, Slot> slots;

    std::unordered_map<uint64_t, uint64_t> posMap;
    std::unordered_map<uint64_t, StashEntry> stash;

    Random rng;
    size_t maxStash = 0;
    size_t maxTransientStash = 0;
    size_t lastPeakStash = 0;
    uint64_t overflows = 0;
    uint64_t accessCount = 0;
    std::vector<SlotRef> lastSlots;
};

} // namespace obfusmem

#endif // OBFUSMEM_ORAM_PATH_ORAM_HH
