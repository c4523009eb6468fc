/**
 * @file
 * The pluggable protection-path interface.
 *
 * Every protection scheme the simulator evaluates - the plain and
 * encrypted paths, ObfusMem itself, and the ORAM-family competitors -
 * is one implementation of ObliviousBackend: a factory-constructed
 * bundle owning the scheme's components that exposes the MemSink the
 * cache hierarchy talks to, a functional-read hook for verification,
 * and checkpoint/restore of the scheme's functional state.
 *
 * The registry (ObliviousBackendInfo) is a function table in the
 * obfuscator-vtable style: one static row per ProtectionMode carrying
 * the mode's name, its substrate needs, and its create function, so
 * System assembly, the benches' mode sweeps, and `obfussim --mode` all
 * drive off the same table instead of scattered switch statements.
 */

#ifndef OBFUSMEM_SYSTEM_OBLIVIOUS_BACKEND_HH
#define OBFUSMEM_SYSTEM_OBLIVIOUS_BACKEND_HH

#include <iosfwd>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "check/trace_auditor.hh"
#include "mem/backing_store.hh"
#include "mem/packet_pool.hh"
#include "obfusmem/mem_side.hh"
#include "obfusmem/plain_path.hh"
#include "obfusmem/proc_side.hh"
#include "system/config.hh"

namespace obfusmem {

/**
 * Everything a backend factory may wire against: the shared substrate
 * System builds before selecting a protection path. `buses`/`pcms`
 * are empty when the mode's registry row says needsBuses=false, and
 * `auditor`, the probe the ObfusMem endpoints report to, is null
 * unless SystemConfig::attachAuditor is set.
 */
struct BackendContext
{
    const SystemConfig &cfg;
    EventQueue &eq;
    statistics::Group &root;
    PacketPool &pktPool;
    AddressMap &map;
    BackingStore &store;
    std::vector<std::unique_ptr<ChannelBus>> &buses;
    std::vector<std::unique_ptr<PcmController>> &pcms;
    check::TraceAuditor *auditor;
    const std::vector<crypto::Aes128::Key> &channelKeys;
    /** Key of the on-chip memory encryption engine. */
    crypto::Aes128::Key meeKey;
};

/**
 * One assembled protection path.
 */
class ObliviousBackend
{
  public:
    virtual ~ObliviousBackend() = default;

    /** The sink the cache hierarchy (or a tenant generator) drives. */
    virtual MemSink &sink() = 0;

    /**
     * Functional (untimed) read of the logical block at @p addr as
     * this scheme would decrypt/resolve it, or nullopt when the raw
     * backing store already holds the plaintext.
     */
    virtual std::optional<DataBlock> functionalRead(uint64_t /*addr*/)
    {
        return std::nullopt;
    }

    /**
     * Checkpoint the scheme's functional state (position maps,
     * stashes, counters, RNG streams). Stateless schemes write only
     * the format tag. This is the serialize half of the vtable that
     * the roadmap's checkpoint/restore item builds on.
     */
    virtual void serialize(std::ostream &os) const;

    /** Restore from serialize() output; false on format mismatch. */
    virtual bool deserialize(std::istream &is);

    // --- Typed component access (null when the scheme lacks it) ------

    virtual ObfusMemProcSide *procSide() { return nullptr; }
    virtual std::vector<std::unique_ptr<ObfusMemMemSide>> *memSides()
    {
        return nullptr;
    }
    virtual OramFixedLatency *oramFixed() { return nullptr; }
    virtual OramDetailed *oramDetailed() { return nullptr; }
    virtual FlatOramController *flatOram() { return nullptr; }
    virtual WriteOnlyOramController *writeOnlyOram() { return nullptr; }

  protected:
    explicit ObliviousBackend(ProtectionMode mode_) : mode(mode_) {}

    /** Serialized-stream tag; subclasses append their payload. */
    ProtectionMode mode;
};

/**
 * Registry row of one protection scheme.
 */
struct ObliviousBackendInfo
{
    ProtectionMode mode;
    /** Canonical name (CLI/JSON/env spelling). */
    const char *name;
    /** Scheme sits on channel buses + PCM (vs. the magic store). */
    bool needsBuses;
    /** Scheme obfuscates the wire (auditor runs in strict mode). */
    bool obfuscatedWire;
    std::unique_ptr<ObliviousBackend> (*create)(
        const BackendContext &ctx);
};

/** Registry row for @p mode (every mode has one). */
const ObliviousBackendInfo &backendInfo(ProtectionMode mode);

/**
 * Row whose canonical name (or a documented alias: "encryption",
 * "obfusmem-auth") matches @p name; nullptr when unknown.
 */
const ObliviousBackendInfo *backendInfoByName(std::string_view name);

/** All registry rows, in ProtectionMode declaration order. */
const std::vector<ObliviousBackendInfo> &allBackendInfos();

} // namespace obfusmem

#endif // OBFUSMEM_SYSTEM_OBLIVIOUS_BACKEND_HH
