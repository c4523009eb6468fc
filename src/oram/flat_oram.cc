/**
 * @file
 * FlatOram implementation.
 */

#include "oram/flat_oram.hh"

#include <algorithm>
#include <istream>
#include <ostream>

#include "oram/path_oram.hh"
#include "util/assert.hh"
#include "util/logging.hh"
#include "util/serial.hh"

namespace obfusmem {

namespace {

/** SplitMix64-style mix for the deterministic unmapped-read probe. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

FlatOram::FlatOram(const Params &params_)
    : params(params_), rng(params_.seed)
{
    fatal_if(params.capacityBlocks == 0, "empty Flat ORAM");
    fatal_if(params.utilization <= 0.0 || params.utilization > 1.0,
             "Flat ORAM utilization must be in (0, 1]");
    physSlots = static_cast<uint64_t>(
        static_cast<double>(params.capacityBlocks)
        / params.utilization);
    physSlots = std::max(physSlots, params.capacityBlocks + 1);
    slotData.resize(physSlots);
    slotBlock.assign(physSlots, kFree);
}

DataBlock
FlatOram::read(uint64_t block_id)
{
    ++accessCount;
    ++physReads;
    lastReads.clear();
    lastWrites.clear();

    auto it = posMap.find(block_id);
    if (it == posMap.end()) {
        // Never written: the controller still performs one read (at a
        // deterministic probe slot) so a read miss is not free, and
        // returns "uninitialized memory" junk.
        lastReads.push_back(mix64(block_id) % physSlots);
        return junkDataBlock(block_id);
    }
    lastReads.push_back(it->second);
    return slotData[it->second];
}

void
FlatOram::write(uint64_t block_id, const DataBlock &data)
{
    ++accessCount;
    lastReads.clear();
    lastWrites.clear();

    // The design point: live blocks stay at or below the logical
    // capacity, so a free slot always exists (utilization < 1).
    OBF_ASSERT(posMap.size() < physSlots,
               "Flat ORAM driven past its physical capacity: ",
               posMap.size(), " live blocks in ", physSlots, " slots");

    // Uniformly random free slot: probe the occupancy map (held
    // on-controller, so probes cost no memory traffic) until a free
    // slot comes up. Expected probes = 1/(1 - occupancy).
    uint64_t target = kFree;
    unsigned probes = 0;
    while (probes < params.maxProbes) {
        ++probes;
        uint64_t candidate = rng.randUnder(physSlots);
        if (slotBlock[candidate] == kFree) {
            target = candidate;
            break;
        }
    }
    OBF_ASSERT(target != kFree,
               "Flat ORAM exhausted ", params.maxProbes,
               " occupancy probes (occupancy ", occupancy(),
               "); the structure is past its design utilization");
    lastProbes = probes;
    maxProbesSeen = std::max(maxProbesSeen, probes);

    // Free the old slot (metadata-only), then place the new version.
    auto it = posMap.find(block_id);
    if (it != posMap.end())
        slotBlock[it->second] = kFree;
    slotBlock[target] = block_id;
    slotData[target] = data;
    posMap[block_id] = target;

    ++physWrites;
    lastWrites.push_back(target);
}

std::optional<uint64_t>
FlatOram::slotOf(uint64_t block_id) const
{
    auto it = posMap.find(block_id);
    if (it == posMap.end())
        return std::nullopt;
    return it->second;
}

bool
FlatOram::checkInvariant() const
{
    uint64_t occupied = 0;
    for (uint64_t s = 0; s < physSlots; ++s) {
        if (slotBlock[s] == kFree)
            continue;
        ++occupied;
        auto it = posMap.find(slotBlock[s]);
        if (it == posMap.end() || it->second != s)
            return false;
    }
    if (occupied != posMap.size())
        return false;
    for (const auto &[block_id, slot] : posMap) {
        if (slot >= physSlots || slotBlock[slot] != block_id)
            return false;
    }
    return true;
}

namespace {
/** "FORAMv1\0" as a little-endian u64 format tag. */
constexpr uint64_t kFlatOramMagic = 0x0031764d41524f46ULL;
} // namespace

void
FlatOram::serialize(std::ostream &os) const
{
    serial::putU64(os, kFlatOramMagic);
    serial::putU64(os, params.capacityBlocks);
    serial::putU64(os, physSlots);

    serial::putU64(os, posMap.size());
    for (const auto &[block_id, slot] : posMap) {
        serial::putU64(os, block_id);
        serial::putU64(os, slot);
        serial::putBytes(os, slotData[slot].data(),
                         slotData[slot].size());
    }

    for (uint64_t word : rng.rawState())
        serial::putU64(os, word);
    serial::putU64(os, accessCount);
    serial::putU64(os, physWrites);
    serial::putU64(os, physReads);
}

bool
FlatOram::deserialize(std::istream &is)
{
    if (!serial::expectU64(is, kFlatOramMagic)
        || !serial::expectU64(is, params.capacityBlocks)
        || !serial::expectU64(is, physSlots)) {
        return false;
    }

    uint64_t live = 0;
    if (!serial::getU64(is, live))
        return false;
    posMap.clear();
    slotBlock.assign(physSlots, kFree);
    for (uint64_t i = 0; i < live; ++i) {
        uint64_t block_id = 0, slot = 0;
        DataBlock data{};
        if (!serial::getU64(is, block_id) || !serial::getU64(is, slot)
            || slot >= physSlots
            || !serial::getBytes(is, data.data(), data.size())) {
            return false;
        }
        posMap[block_id] = slot;
        slotBlock[slot] = block_id;
        slotData[slot] = data;
    }

    std::array<uint64_t, 4> state{};
    for (uint64_t &word : state) {
        if (!serial::getU64(is, word))
            return false;
    }
    rng.setRawState(state);
    if (!serial::getU64(is, accessCount)
        || !serial::getU64(is, physWrites)
        || !serial::getU64(is, physReads)) {
        return false;
    }
    lastReads.clear();
    lastWrites.clear();
    lastProbes = 0;
    // Each field was in range; the structure they build must hold
    // too, or a corrupt checkpoint would be accepted.
    return checkInvariant();
}

} // namespace obfusmem
