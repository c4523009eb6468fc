/**
 * @file
 * Functional deterministic, stash-free write-only ORAM in the style
 * of DetWoORAM (Roche et al., see the Keystone-era survey in
 * PAPERS.md).
 *
 * Physical memory is split into a direct-mapped *main* area M[0..N)
 * and a *holding* area H[0..N), plus a monotone write counter c kept
 * on the controller. Logical write number c goes to holding slot
 * H[c mod N]; the same step then *refreshes* main block r = c mod N
 * by writing its freshest copy (wherever it lives) to M[r]. The
 * physical write sequence is therefore H[c mod N], M[c mod N] - a
 * fixed round-robin that depends only on the count of writes, never
 * on the addresses written, which is the (deterministic, not merely
 * statistical) write-only obliviousness argument. Reads fetch the
 * freshest copy directly and are unprotected, as in Flat ORAM.
 *
 * Safety of holding-slot reuse: H[w] written at step c is reused at
 * step c + N, and in [c, c + N) the round-robin refresh covers every
 * main block id exactly once - including the owner of H[w] - so the
 * freshest copy is always propagated to main (or superseded by a
 * newer holding write) strictly before the slot is clobbered. The
 * implementation asserts this.
 *
 * Costs: write amplification exactly 2x, storage 2x, no stash, no
 * randomness - the structure cannot deadlock or fail probabilistic
 * bounds, unlike Path ORAM's stash or Flat ORAM's probe bound.
 */

#ifndef OBFUSMEM_ORAM_WRITE_ONLY_ORAM_HH
#define OBFUSMEM_ORAM_WRITE_ONLY_ORAM_HH

#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "mem/packet.hh"

namespace obfusmem {

/**
 * The functional deterministic write-only ORAM structure.
 */
class WriteOnlyOram
{
  public:
    struct Params
    {
        /** Logical blocks N; physical footprint is 2N (main+holding). */
        uint64_t capacityBlocks = 1ull << 15;
    };

    explicit WriteOnlyOram(const Params &params);

    /** Read a logical block (junk if never written). */
    DataBlock read(uint64_t block_id);

    /** Write a logical block: H[c mod N] then refresh M[c mod N]. */
    void write(uint64_t block_id, const DataBlock &data);

    uint64_t capacityBlocks() const { return params.capacityBlocks; }
    /** Main + holding areas. */
    uint64_t physicalBlocks() const { return 2 * params.capacityBlocks; }

    /**
     * Physical slots read by the most recent access. Slot numbering:
     * main block a is slot a, holding slot w is slot N + w.
     */
    const std::vector<uint64_t> &lastReadSlots() const
    {
        return lastReads;
    }

    /** Physical slots written by the most recent access, in order. */
    const std::vector<uint64_t> &lastWriteSlots() const
    {
        return lastWrites;
    }

    uint64_t accesses() const { return accessCount; }
    uint64_t logicalWrites() const { return writeCounter; }
    uint64_t physicalWrites() const { return physWrites; }
    uint64_t physicalReads() const { return physReads; }

    /** True if the freshest copy of @p block_id is in the holding area. */
    bool inHolding(uint64_t block_id) const;

    /** Blocks whose freshest copy currently sits in the holding area. */
    uint64_t holdingCount() const { return holdPos.size(); }

    /**
     * Structural invariant: every holding slot's owner agrees with the
     * position map, every mapped block's copy is where the map says,
     * and no holding slot is owned by two blocks.
     */
    bool checkInvariant() const;

    /** Checkpoint the functional state. */
    void serialize(std::ostream &os) const;
    /**
     * Restore from serialize() output; false on format mismatch, a
     * holding entry whose block id or slot is >= capacityBlocks(), or
     * a state failing checkInvariant().
     */
    bool deserialize(std::istream &is);

  private:
    static constexpr uint64_t kFree = ~uint64_t{0};

    /** Freshest copy of a block, resolving holding vs main vs junk. */
    DataBlock freshest(uint64_t block_id) const;

    Params params;

    std::vector<DataBlock> mainArea;
    std::vector<DataBlock> holdArea;
    /** Owning logical block per holding slot, or kFree. */
    std::vector<uint64_t> holdOwner;
    /**
     * Holding slot of a block whose freshest copy is in holding.
     * Blocks absent from this map are served from main (or junk if
     * never written).
     */
    std::unordered_map<uint64_t, uint64_t> holdPos;
    /** Blocks that have ever been logically written. */
    std::vector<uint8_t> written;

    uint64_t writeCounter = 0;
    uint64_t accessCount = 0;
    uint64_t physWrites = 0;
    uint64_t physReads = 0;
    std::vector<uint64_t> lastReads;
    std::vector<uint64_t> lastWrites;
};

} // namespace obfusmem

#endif // OBFUSMEM_ORAM_WRITE_ONLY_ORAM_HH
