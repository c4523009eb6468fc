/**
 * @file
 * Sparse functional memory: the authoritative contents of the
 * simulated PCM. Only blocks that have ever been written are stored;
 * reads of untouched blocks return a deterministic pseudo-random fill
 * (modelling uninitialized memory without 8 GB of host allocation).
 */

#ifndef OBFUSMEM_MEM_BACKING_STORE_HH
#define OBFUSMEM_MEM_BACKING_STORE_HH

#include <cstdint>
#include <unordered_map>

#include "mem/packet.hh"

namespace obfusmem {

/**
 * Content of a block nothing has written yet (modelling uninitialized
 * memory): a byte-serial xorshift stream seeded with `key ^ salt`.
 * With the default salt it is what BackingStore::read returns for the
 * never-written block at block-aligned address `key`, and so what a
 * cache line warmed before any write holds. The functional ORAMs key
 * it by logical block id under their own salt (junkDataBlock()).
 */
DataBlock neverWrittenBlock(uint64_t key,
                            uint64_t salt = 0xdeadbeefcafef00dULL);

/**
 * Functional backing store keyed by block address.
 */
class BackingStore
{
  public:
    explicit BackingStore(uint64_t capacity_bytes)
        : capacityBytes(capacity_bytes)
    {}

    /** Read a block (neverWrittenBlock() if never written). */
    DataBlock read(uint64_t addr) const;

    /** Write a block. */
    void write(uint64_t addr, const DataBlock &data);

    /** Whether the block has ever been written. */
    bool populated(uint64_t addr) const;

    /** Number of distinct blocks written so far. */
    size_t blocksAllocated() const { return blocks.size(); }

    uint64_t capacity() const { return capacityBytes; }

  private:
    uint64_t capacityBytes;
    std::unordered_map<uint64_t, DataBlock> blocks;
};

} // namespace obfusmem

#endif // OBFUSMEM_MEM_BACKING_STORE_HH
