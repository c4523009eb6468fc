/**
 * @file
 * BackingStore implementation.
 */

#include "mem/backing_store.hh"

#include "util/logging.hh"

namespace obfusmem {

DataBlock
neverWrittenBlock(uint64_t key, uint64_t salt)
{
    DataBlock junk;
    uint64_t x = key ^ salt;
    for (auto &byte : junk) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        byte = static_cast<uint8_t>(x);
    }
    return junk;
}

DataBlock
BackingStore::read(uint64_t addr) const
{
    uint64_t key = blockAlign(addr);
    panic_if(key >= capacityBytes, "read beyond capacity");
    auto it = blocks.find(key);
    if (it != blocks.end())
        return it->second;
    return neverWrittenBlock(key);
}

void
BackingStore::write(uint64_t addr, const DataBlock &data)
{
    uint64_t key = blockAlign(addr);
    panic_if(key >= capacityBytes, "write beyond capacity");
    blocks[key] = data;
}

bool
BackingStore::populated(uint64_t addr) const
{
    return blocks.count(blockAlign(addr)) != 0;
}

} // namespace obfusmem
