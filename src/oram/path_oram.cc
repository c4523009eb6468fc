/**
 * @file
 * PathOram implementation.
 */

#include "oram/path_oram.hh"

#include <algorithm>
#include <istream>
#include <ostream>

#include "mem/backing_store.hh"
#include "util/assert.hh"
#include "util/logging.hh"
#include "util/serial.hh"

namespace obfusmem {

DataBlock
junkDataBlock(uint64_t block_id)
{
    return neverWrittenBlock(block_id, 0x0bf5ceedULL);
}

PathOram::PathOram(const Params &params_)
    : params(params_), rng(params_.seed)
{
    fatal_if(params.levels == 0 || params.levels > 30,
             "unsupported tree height");
    numLeaves = uint64_t{1} << params.levels;
    numBuckets = (uint64_t{2} << params.levels) - 1;
}

uint64_t
PathOram::capacityBlocks() const
{
    return physicalBlocks() / 2;
}

uint64_t
PathOram::bucketOnPath(uint64_t leaf, unsigned level) const
{
    // Heap numbering: root = 0; the leaf bucket for `leaf` is at
    // index (2^L - 1) + leaf. Level 0 = root.
    uint64_t node = (numLeaves - 1) + leaf;
    for (unsigned up = params.levels; up > level; --up)
        node = (node - 1) / 2;
    return node;
}

DataBlock
PathOram::read(uint64_t block_id)
{
    return access(block_id, nullptr);
}

void
PathOram::write(uint64_t block_id, const DataBlock &data)
{
    access(block_id, &data);
}

DataBlock
PathOram::access(uint64_t block_id, const DataBlock *new_data)
{
    ++accessCount;
    lastSlots.clear();

    // Position lookup; unmapped blocks get a fresh random leaf.
    auto pos_it = posMap.find(block_id);
    uint64_t leaf;
    if (pos_it == posMap.end()) {
        leaf = rng.randUnder(numLeaves);
    } else {
        leaf = pos_it->second;
    }

    // Read the whole path into the stash.
    for (unsigned level = 0; level <= params.levels; ++level) {
        uint64_t bucket = bucketOnPath(leaf, level);
        for (unsigned s = 0; s < params.bucketSize; ++s) {
            lastSlots.push_back({bucket, s});
            auto slot_it = slots.find(bucket * params.bucketSize + s);
            if (slot_it != slots.end()) {
                const Slot &slot = slot_it->second;
                stash[slot.blockId] = {slot.leaf, slot.data};
                slots.erase(slot_it);
            }
        }
    }

    // Remap to a fresh random leaf (the heart of the obfuscation).
    uint64_t new_leaf = rng.randUnder(numLeaves);
    posMap[block_id] = new_leaf;

    // Serve the request out of the stash.
    auto stash_it = stash.find(block_id);
    DataBlock result{};
    if (stash_it == stash.end()) {
        // First touch: deterministic junk, like uninitialized memory.
        result = junkDataBlock(block_id);
        stash[block_id] = {new_leaf, result};
    } else {
        stash_it->second.leaf = new_leaf;
        result = stash_it->second.data;
    }
    if (new_data)
        stash[block_id].data = *new_data;

    // The stash is now at its mid-access peak: the whole path plus
    // the accessed block, before eviction drains it. This is the
    // occupancy a hardware stash must hold, so the capacity limit is
    // enforced here - not after eviction, which systematically
    // under-reports pressure.
    lastPeakStash = stash.size();
    maxTransientStash = std::max(maxTransientStash, lastPeakStash);
    if (lastPeakStash > params.stashLimit) {
        OBF_ASSERT(!params.failOnOverflow,
                   "Path ORAM stash overflow: ", lastPeakStash,
                   " blocks > stashLimit ", params.stashLimit,
                   " (access ", accessCount, ", block ", block_id,
                   "); a hardware controller deadlocks here. Set "
                   "Params::failOnOverflow=false only to measure "
                   "overflow frequency past the design point.");
        ++overflows;
    }

    // Write back: from the leaf up, greedily place stash blocks whose
    // assigned path intersects this bucket.
    for (int level = static_cast<int>(params.levels); level >= 0;
         --level) {
        uint64_t bucket = bucketOnPath(leaf, level);
        unsigned placed = 0;
        auto it = stash.begin();
        while (it != stash.end() && placed < params.bucketSize) {
            if (bucketOnPath(it->second.leaf, level) == bucket) {
                // The read-in emptied every slot on this path.
                slots.emplace(bucket * params.bucketSize + placed,
                              Slot{it->first, it->second.leaf,
                                   it->second.data});
                it = stash.erase(it);
                ++placed;
            } else {
                ++it;
            }
        }
    }

    maxStash = std::max(maxStash, stash.size());

    return result;
}

bool
PathOram::checkInvariant() const
{
    for (const auto &[block_id, leaf] : posMap) {
        if (stash.count(block_id))
            continue;
        bool found = false;
        for (unsigned level = 0; level <= params.levels && !found;
             ++level) {
            uint64_t bucket = bucketOnPath(leaf, level);
            for (unsigned s = 0; s < params.bucketSize; ++s) {
                auto slot_it =
                    slots.find(bucket * params.bucketSize + s);
                if (slot_it != slots.end()
                    && slot_it->second.blockId == block_id) {
                    if (slot_it->second.leaf != leaf)
                        return false;
                    found = true;
                    break;
                }
            }
        }
        if (!found)
            return false;
    }
    return true;
}

double
PathOram::occupancy() const
{
    return static_cast<double>(slots.size()) / physicalBlocks();
}

std::optional<uint64_t>
PathOram::leafOf(uint64_t block_id) const
{
    auto it = posMap.find(block_id);
    if (it == posMap.end())
        return std::nullopt;
    return it->second;
}

namespace {
/** "PORAMv1\0" as a little-endian u64 format tag. */
constexpr uint64_t kPathOramMagic = 0x0031764d41524f50ULL;
} // namespace

void
PathOram::serialize(std::ostream &os) const
{
    serial::putU64(os, kPathOramMagic);
    serial::putU64(os, params.levels);
    serial::putU64(os, params.bucketSize);

    serial::putU64(os, posMap.size());
    for (const auto &[block_id, leaf] : posMap) {
        serial::putU64(os, block_id);
        serial::putU64(os, leaf);
    }

    serial::putU64(os, stash.size());
    for (const auto &[block_id, entry] : stash) {
        serial::putU64(os, block_id);
        serial::putU64(os, entry.leaf);
        serial::putBytes(os, entry.data.data(), entry.data.size());
    }

    // Ascending slot index, so checkpoint bytes do not depend on the
    // hash table's iteration order.
    std::vector<uint64_t> stored;
    stored.reserve(slots.size());
    for (const auto &[index, slot] : slots)
        stored.push_back(index);
    std::sort(stored.begin(), stored.end());
    serial::putU64(os, stored.size());
    for (uint64_t index : stored) {
        const Slot &slot = slots.at(index);
        serial::putU64(os, index);
        serial::putU64(os, slot.blockId);
        serial::putU64(os, slot.leaf);
        serial::putBytes(os, slot.data.data(), slot.data.size());
    }

    for (uint64_t word : rng.rawState())
        serial::putU64(os, word);
    serial::putU64(os, maxStash);
    serial::putU64(os, maxTransientStash);
    serial::putU64(os, overflows);
    serial::putU64(os, accessCount);
}

bool
PathOram::deserialize(std::istream &is)
{
    if (!serial::expectU64(is, kPathOramMagic)
        || !serial::expectU64(is, params.levels)
        || !serial::expectU64(is, params.bucketSize)) {
        return false;
    }

    uint64_t pos_entries = 0;
    if (!serial::getU64(is, pos_entries))
        return false;
    posMap.clear();
    for (uint64_t i = 0; i < pos_entries; ++i) {
        uint64_t block_id = 0, leaf = 0;
        if (!serial::getU64(is, block_id) || !serial::getU64(is, leaf)
            || leaf >= numLeaves) {
            return false;
        }
        posMap[block_id] = leaf;
    }

    uint64_t stash_entries = 0;
    if (!serial::getU64(is, stash_entries))
        return false;
    stash.clear();
    for (uint64_t i = 0; i < stash_entries; ++i) {
        uint64_t block_id = 0;
        StashEntry entry{};
        if (!serial::getU64(is, block_id)
            || !serial::getU64(is, entry.leaf) || entry.leaf >= numLeaves
            || !serial::getBytes(is, entry.data.data(),
                                 entry.data.size())) {
            return false;
        }
        stash[block_id] = entry;
    }

    uint64_t stored = 0;
    if (!serial::getU64(is, stored))
        return false;
    slots.clear();
    for (uint64_t i = 0; i < stored; ++i) {
        uint64_t index = 0;
        Slot slot{};
        if (!serial::getU64(is, index) || index >= physicalBlocks()
            || !serial::getU64(is, slot.blockId)
            || !serial::getU64(is, slot.leaf) || slot.leaf >= numLeaves
            || !serial::getBytes(is, slot.data.data(),
                                 slot.data.size())) {
            return false;
        }
        slots[index] = slot;
    }

    std::array<uint64_t, 4> state{};
    for (uint64_t &word : state) {
        if (!serial::getU64(is, word))
            return false;
    }
    rng.setRawState(state);

    uint64_t max_stash = 0, max_transient = 0;
    if (!serial::getU64(is, max_stash)
        || !serial::getU64(is, max_transient)
        || !serial::getU64(is, overflows)
        || !serial::getU64(is, accessCount)) {
        return false;
    }
    maxStash = max_stash;
    maxTransientStash = max_transient;
    lastPeakStash = 0;
    lastSlots.clear();
    // Each field was in range; the structure they build must hold
    // too, or a corrupt checkpoint would be accepted.
    return checkInvariant();
}

} // namespace obfusmem
