/**
 * @file
 * WriteOnlyOram implementation.
 */

#include "oram/write_only_oram.hh"

#include <istream>
#include <ostream>

#include "oram/path_oram.hh"
#include "util/assert.hh"
#include "util/logging.hh"
#include "util/serial.hh"

namespace obfusmem {

WriteOnlyOram::WriteOnlyOram(const Params &params_)
    : params(params_)
{
    fatal_if(params.capacityBlocks == 0, "empty write-only ORAM");
    mainArea.resize(params.capacityBlocks);
    holdArea.resize(params.capacityBlocks);
    holdOwner.assign(params.capacityBlocks, kFree);
    written.assign(params.capacityBlocks, 0);
}

DataBlock
WriteOnlyOram::freshest(uint64_t block_id) const
{
    auto it = holdPos.find(block_id);
    if (it != holdPos.end())
        return holdArea[it->second];
    if (written[block_id])
        return mainArea[block_id];
    return junkDataBlock(block_id);
}

DataBlock
WriteOnlyOram::read(uint64_t block_id)
{
    OBF_ASSERT(block_id < params.capacityBlocks,
               "write-only ORAM block ", block_id, " out of range");
    ++accessCount;
    ++physReads;
    lastReads.clear();
    lastWrites.clear();

    auto it = holdPos.find(block_id);
    if (it != holdPos.end()) {
        lastReads.push_back(params.capacityBlocks + it->second);
        return holdArea[it->second];
    }
    // Never-written blocks still cost one main-area read; the
    // returned content is deterministic junk.
    lastReads.push_back(block_id);
    if (written[block_id])
        return mainArea[block_id];
    return junkDataBlock(block_id);
}

void
WriteOnlyOram::write(uint64_t block_id, const DataBlock &data)
{
    const uint64_t n = params.capacityBlocks;
    OBF_ASSERT(block_id < n,
               "write-only ORAM block ", block_id, " out of range");
    ++accessCount;
    lastReads.clear();
    lastWrites.clear();

    const uint64_t w = writeCounter % n;

    // Slot reuse safety: the round-robin refresh must have propagated
    // (or a newer write superseded) whatever lived here - see the
    // header's reuse argument. A firing assert means the refresh
    // schedule is broken and data would be silently lost.
    OBF_ASSERT(holdOwner[w] == kFree,
               "write-only ORAM holding slot ", w,
               " reused before its block ", holdOwner[w],
               " was propagated (write ", writeCounter, ")");

    // Step 1: the logical write, appended to the holding area.
    auto old_it = holdPos.find(block_id);
    if (old_it != holdPos.end())
        holdOwner[old_it->second] = kFree;
    holdArea[w] = data;
    holdOwner[w] = block_id;
    holdPos[block_id] = w;
    written[block_id] = 1;
    ++physWrites;
    lastWrites.push_back(n + w);

    // Step 2: round-robin refresh of main block r = c mod N. The
    // freshest copy of r (possibly the data just written, when
    // block_id == r) is propagated to M[r]; if it came from holding,
    // that slot is released. The physical address depends only on
    // the write counter.
    const uint64_t r = w;
    mainArea[r] = freshest(r);
    auto ref_it = holdPos.find(r);
    if (ref_it != holdPos.end()) {
        holdOwner[ref_it->second] = kFree;
        holdPos.erase(ref_it);
    }
    ++physWrites;
    lastWrites.push_back(r);

    ++writeCounter;
}

bool
WriteOnlyOram::inHolding(uint64_t block_id) const
{
    return holdPos.count(block_id) != 0;
}

bool
WriteOnlyOram::checkInvariant() const
{
    uint64_t owned = 0;
    for (uint64_t s = 0; s < params.capacityBlocks; ++s) {
        if (holdOwner[s] == kFree)
            continue;
        ++owned;
        auto it = holdPos.find(holdOwner[s]);
        if (it == holdPos.end() || it->second != s)
            return false;
        if (!written[holdOwner[s]])
            return false;
    }
    if (owned != holdPos.size())
        return false;
    for (const auto &[block_id, slot] : holdPos) {
        if (slot >= params.capacityBlocks
            || holdOwner[slot] != block_id) {
            return false;
        }
    }
    return true;
}

namespace {
/** "WORAMv1\0" as a little-endian u64 format tag. */
constexpr uint64_t kWoOramMagic = 0x0031764d41524f57ULL;
} // namespace

void
WriteOnlyOram::serialize(std::ostream &os) const
{
    serial::putU64(os, kWoOramMagic);
    serial::putU64(os, params.capacityBlocks);
    serial::putU64(os, writeCounter);

    for (uint64_t a = 0; a < params.capacityBlocks; ++a) {
        serial::putU64(os, written[a]);
        if (written[a])
            serial::putBytes(os, mainArea[a].data(),
                             mainArea[a].size());
    }

    serial::putU64(os, holdPos.size());
    for (const auto &[block_id, slot] : holdPos) {
        serial::putU64(os, block_id);
        serial::putU64(os, slot);
        serial::putBytes(os, holdArea[slot].data(),
                         holdArea[slot].size());
    }

    serial::putU64(os, accessCount);
    serial::putU64(os, physWrites);
    serial::putU64(os, physReads);
}

bool
WriteOnlyOram::deserialize(std::istream &is)
{
    if (!serial::expectU64(is, kWoOramMagic)
        || !serial::expectU64(is, params.capacityBlocks)
        || !serial::getU64(is, writeCounter)) {
        return false;
    }

    written.assign(params.capacityBlocks, 0);
    for (uint64_t a = 0; a < params.capacityBlocks; ++a) {
        uint64_t w = 0;
        if (!serial::getU64(is, w) || w > 1)
            return false;
        written[a] = static_cast<uint8_t>(w);
        if (w && !serial::getBytes(is, mainArea[a].data(),
                                   mainArea[a].size())) {
            return false;
        }
    }

    uint64_t held = 0;
    if (!serial::getU64(is, held))
        return false;
    holdPos.clear();
    holdOwner.assign(params.capacityBlocks, kFree);
    for (uint64_t i = 0; i < held; ++i) {
        uint64_t block_id = 0, slot = 0;
        if (!serial::getU64(is, block_id)
            || block_id >= params.capacityBlocks
            || !serial::getU64(is, slot) || slot >= params.capacityBlocks
            || !serial::getBytes(is, holdArea[slot].data(),
                                 holdArea[slot].size())) {
            return false;
        }
        holdPos[block_id] = slot;
        holdOwner[slot] = block_id;
    }

    if (!serial::getU64(is, accessCount)
        || !serial::getU64(is, physWrites)
        || !serial::getU64(is, physReads)) {
        return false;
    }
    lastReads.clear();
    lastWrites.clear();
    // Each field was in range; the structure they build must hold
    // too, or a corrupt checkpoint would be accepted.
    return checkInvariant();
}

} // namespace obfusmem
