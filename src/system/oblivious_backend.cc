/**
 * @file
 * Protection-path backends and their registry.
 */

#include "system/oblivious_backend.hh"

#include <istream>
#include <ostream>

#include "util/logging.hh"
#include "util/serial.hh"

namespace obfusmem {

namespace {

/** "OBKNDv1\0" as a little-endian u64 format tag. */
constexpr uint64_t kBackendMagic = 0x003176444e4b424fULL;

std::vector<ChannelBus *>
busPtrs(const BackendContext &ctx)
{
    std::vector<ChannelBus *> ptrs;
    for (auto &bus : ctx.buses)
        ptrs.push_back(bus.get());
    return ptrs;
}

std::vector<PcmController *>
pcmPtrs(const BackendContext &ctx)
{
    std::vector<PcmController *> ptrs;
    for (auto &pcm : ctx.pcms)
        ptrs.push_back(pcm.get());
    return ptrs;
}

std::unique_ptr<PlainPath>
makePlainPath(const BackendContext &ctx)
{
    return std::make_unique<PlainPath>(
        "system.plainPath", ctx.eq, &ctx.root, ctx.map, busPtrs(ctx),
        pcmPtrs(ctx), ctx.pktPool, PlainPath::Params{});
}

// ---------------------------------------------------------------------
// Unprotected / EncryptionOnly
// ---------------------------------------------------------------------

class PlainBackend : public ObliviousBackend
{
  public:
    PlainBackend(const BackendContext &ctx, bool encrypted)
        : ObliviousBackend(encrypted ? ProtectionMode::EncryptionOnly
                                     : ProtectionMode::Unprotected),
          store(ctx.store), dataBytes(ctx.cfg.dataRegionBytes()),
          plainPath(makePlainPath(ctx))
    {
        if (encrypted) {
            encEngine = std::make_unique<MemoryEncryptionEngine>(
                "system.encEngine", ctx.eq, &ctx.root,
                ctx.cfg.encryption, *plainPath, dataBytes,
                ctx.cfg.counterRegionBase(), ctx.cfg.bmtRegionBase(),
                ctx.meeKey);
        }
    }

    MemSink &sink() override
    {
        return encEngine ? static_cast<MemSink &>(*encEngine)
                         : static_cast<MemSink &>(*plainPath);
    }

    std::optional<DataBlock> functionalRead(uint64_t addr) override
    {
        if (encEngine && addr < dataBytes)
            return encEngine->debugDecrypt(addr, store.read(addr));
        return std::nullopt;
    }

  private:
    BackingStore &store;
    uint64_t dataBytes;
    std::unique_ptr<PlainPath> plainPath;
    std::unique_ptr<MemoryEncryptionEngine> encEngine;
};

// ---------------------------------------------------------------------
// ObfusMem / ObfusMemAuth
// ---------------------------------------------------------------------

class ObfusBackend : public ObliviousBackend
{
  public:
    ObfusBackend(const BackendContext &ctx, bool auth)
        : ObliviousBackend(auth ? ProtectionMode::ObfusMemAuth
                                : ProtectionMode::ObfusMem),
          store(ctx.store), dataBytes(ctx.cfg.dataRegionBytes())
    {
        ObfusMemParams om = ctx.cfg.obfusmem;
        om.auth = auth;

        // Reserved per-channel dummy block: the very top row of the
        // channel, far above every workload/metadata region.
        std::vector<uint64_t> dummy_addrs;
        for (unsigned c = 0; c < ctx.cfg.channels; ++c) {
            DecodedAddr loc;
            loc.channel = c;
            loc.rank = ctx.map.ranksPerChannel() - 1;
            loc.bank = ctx.map.banksPerRank() - 1;
            loc.row = ctx.map.rowsPerBank() - 1;
            loc.column = ctx.map.blocksPerRow() - 1;
            dummy_addrs.push_back(ctx.map.encode(loc));
        }

        obfusProc = std::make_unique<ObfusMemProcSide>(
            "system.obfusProc", ctx.eq, &ctx.root, om, ctx.map,
            ctx.channelKeys, busPtrs(ctx), dummy_addrs);

        for (unsigned c = 0; c < ctx.cfg.channels; ++c) {
            obfusMem.push_back(std::make_unique<ObfusMemMemSide>(
                "system.obfusMem" + std::to_string(c), ctx.eq,
                &ctx.root, om, c, ctx.channelKeys[c], *ctx.buses[c],
                *ctx.pcms[c], ctx.store, dummy_addrs[c]));
            // Production wiring is direct pointers: message delivery
            // is a virtual-free static call, no std::function hop.
            // (Tests that need to intercept frames still use
            // setRequestTarget/setReplyTarget, which override these.)
            ObfusMemMemSide *side = obfusMem.back().get();
            obfusProc->setMemSide(c, side);
            side->setProcSide(obfusProc.get());
        }

        if (ctx.auditor) {
            obfusProc->setAuditHook(ctx.auditor);
            for (auto &side : obfusMem)
                side->setAuditHook(ctx.auditor);
        }

        encEngine = std::make_unique<MemoryEncryptionEngine>(
            "system.encEngine", ctx.eq, &ctx.root, ctx.cfg.encryption,
            *obfusProc, dataBytes, ctx.cfg.counterRegionBase(),
            ctx.cfg.bmtRegionBase(), ctx.meeKey);
    }

    MemSink &sink() override { return *encEngine; }

    std::optional<DataBlock> functionalRead(uint64_t addr) override
    {
        if (addr < dataBytes)
            return encEngine->debugDecrypt(addr, store.read(addr));
        return std::nullopt;
    }

    ObfusMemProcSide *procSide() override { return obfusProc.get(); }

    std::vector<std::unique_ptr<ObfusMemMemSide>> *memSides() override
    {
        return &obfusMem;
    }

  private:
    BackingStore &store;
    uint64_t dataBytes;
    std::unique_ptr<ObfusMemProcSide> obfusProc;
    std::vector<std::unique_ptr<ObfusMemMemSide>> obfusMem;
    std::unique_ptr<MemoryEncryptionEngine> encEngine;
};

// ---------------------------------------------------------------------
// OramFixed
// ---------------------------------------------------------------------

class OramFixedBackend : public ObliviousBackend
{
  public:
    explicit OramFixedBackend(const BackendContext &ctx)
        : ObliviousBackend(ProtectionMode::OramFixed)
    {
        ctl = std::make_unique<OramFixedLatency>(
            "system.oram", ctx.eq, &ctx.root, ctx.cfg.oramFixed,
            ctx.store);
    }

    MemSink &sink() override { return *ctl; }
    OramFixedLatency *oramFixed() override { return ctl.get(); }

  private:
    std::unique_ptr<OramFixedLatency> ctl;
};

// ---------------------------------------------------------------------
// OramDetailed
// ---------------------------------------------------------------------

class OramDetailedBackend : public ObliviousBackend
{
  public:
    explicit OramDetailedBackend(const BackendContext &ctx)
        : ObliviousBackend(ProtectionMode::OramDetailed),
          plainPath(makePlainPath(ctx))
    {
        OramDetailed::Params op = ctx.cfg.oramDetailed;
        if (op.treeBase == 0)
            op.treeBase = ctx.cfg.oramTreeBase();
        ctl = std::make_unique<OramDetailed>("system.oram", ctx.eq,
                                             &ctx.root, op,
                                             *plainPath);
    }

    MemSink &sink() override { return *ctl; }
    OramDetailed *oramDetailed() override { return ctl.get(); }

    std::optional<DataBlock> functionalRead(uint64_t addr) override
    {
        // Test-only: the functional tree is authoritative.
        return ctl->oram().read(addr / blockBytes);
    }

    void serialize(std::ostream &os) const override;
    bool deserialize(std::istream &is) override;

  private:
    std::unique_ptr<PlainPath> plainPath;
    std::unique_ptr<OramDetailed> ctl;
};

// ---------------------------------------------------------------------
// FlatOram
// ---------------------------------------------------------------------

class FlatOramBackend : public ObliviousBackend
{
  public:
    explicit FlatOramBackend(const BackendContext &ctx)
        : ObliviousBackend(ProtectionMode::FlatOram),
          plainPath(makePlainPath(ctx))
    {
        FlatOramController::Params fp = ctx.cfg.flatOram;
        if (fp.arrayBase == 0)
            fp.arrayBase = ctx.cfg.oramTreeBase();
        ctl = std::make_unique<FlatOramController>(
            "system.oram", ctx.eq, &ctx.root, fp, *plainPath);
    }

    MemSink &sink() override { return *ctl; }
    FlatOramController *flatOram() override { return ctl.get(); }

    std::optional<DataBlock> functionalRead(uint64_t addr) override
    {
        uint64_t block =
            (addr / blockBytes) % ctl->oram().capacityBlocks();
        return ctl->oram().read(block);
    }

    void serialize(std::ostream &os) const override;
    bool deserialize(std::istream &is) override;

  private:
    std::unique_ptr<PlainPath> plainPath;
    std::unique_ptr<FlatOramController> ctl;
};

// ---------------------------------------------------------------------
// WriteOnlyOram
// ---------------------------------------------------------------------

class WriteOnlyOramBackend : public ObliviousBackend
{
  public:
    explicit WriteOnlyOramBackend(const BackendContext &ctx)
        : ObliviousBackend(ProtectionMode::WriteOnlyOram),
          plainPath(makePlainPath(ctx))
    {
        WriteOnlyOramController::Params wp = ctx.cfg.writeOnlyOram;
        if (wp.areaBase == 0)
            wp.areaBase = ctx.cfg.oramTreeBase();
        ctl = std::make_unique<WriteOnlyOramController>(
            "system.oram", ctx.eq, &ctx.root, wp, *plainPath);
    }

    MemSink &sink() override { return *ctl; }
    WriteOnlyOramController *writeOnlyOram() override
    {
        return ctl.get();
    }

    std::optional<DataBlock> functionalRead(uint64_t addr) override
    {
        uint64_t block =
            (addr / blockBytes) % ctl->oram().capacityBlocks();
        return ctl->oram().read(block);
    }

    void serialize(std::ostream &os) const override;
    bool deserialize(std::istream &is) override;

  private:
    std::unique_ptr<PlainPath> plainPath;
    std::unique_ptr<WriteOnlyOramController> ctl;
};

// ---------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------

template <class Backend, bool Flag>
std::unique_ptr<ObliviousBackend>
makeFlagged(const BackendContext &ctx)
{
    return std::make_unique<Backend>(ctx, Flag);
}

template <class Backend>
std::unique_ptr<ObliviousBackend>
make(const BackendContext &ctx)
{
    return std::make_unique<Backend>(ctx);
}

} // namespace

// ---------------------------------------------------------------------
// ObliviousBackend base serialize
// ---------------------------------------------------------------------

void
ObliviousBackend::serialize(std::ostream &os) const
{
    serial::putU64(os, kBackendMagic);
    serial::putU64(os, static_cast<uint64_t>(mode));
}

bool
ObliviousBackend::deserialize(std::istream &is)
{
    return serial::expectU64(is, kBackendMagic)
           && serial::expectU64(is, static_cast<uint64_t>(mode));
}

void
OramDetailedBackend::serialize(std::ostream &os) const
{
    ObliviousBackend::serialize(os);
    ctl->oram().serialize(os);
}

bool
OramDetailedBackend::deserialize(std::istream &is)
{
    return ObliviousBackend::deserialize(is)
           && ctl->oram().deserialize(is);
}

void
FlatOramBackend::serialize(std::ostream &os) const
{
    ObliviousBackend::serialize(os);
    ctl->oram().serialize(os);
}

bool
FlatOramBackend::deserialize(std::istream &is)
{
    return ObliviousBackend::deserialize(is)
           && ctl->oram().deserialize(is);
}

void
WriteOnlyOramBackend::serialize(std::ostream &os) const
{
    ObliviousBackend::serialize(os);
    ctl->oram().serialize(os);
}

bool
WriteOnlyOramBackend::deserialize(std::istream &is)
{
    return ObliviousBackend::deserialize(is)
           && ctl->oram().deserialize(is);
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

const std::vector<ObliviousBackendInfo> &
allBackendInfos()
{
    static const std::vector<ObliviousBackendInfo> infos = {
        {ProtectionMode::Unprotected, "unprotected",
         /*needsBuses=*/true, /*obfuscatedWire=*/false,
         makeFlagged<PlainBackend, false>},
        {ProtectionMode::EncryptionOnly, "encryption-only", true,
         false, makeFlagged<PlainBackend, true>},
        {ProtectionMode::ObfusMem, "obfusmem", true, true,
         makeFlagged<ObfusBackend, false>},
        {ProtectionMode::ObfusMemAuth, "obfusmem+auth", true, true,
         makeFlagged<ObfusBackend, true>},
        {ProtectionMode::OramFixed, "oram-fixed", false, false,
         make<OramFixedBackend>},
        {ProtectionMode::OramDetailed, "oram-detailed", true, false,
         make<OramDetailedBackend>},
        {ProtectionMode::FlatOram, "flat-oram", true, false,
         make<FlatOramBackend>},
        {ProtectionMode::WriteOnlyOram, "wo-oram", true, false,
         make<WriteOnlyOramBackend>},
    };
    return infos;
}

const ObliviousBackendInfo &
backendInfo(ProtectionMode mode)
{
    for (const auto &info : allBackendInfos()) {
        if (info.mode == mode)
            return info;
    }
    panic("no backend registered for mode ",
          static_cast<int>(mode));
}

const ObliviousBackendInfo *
backendInfoByName(std::string_view name)
{
    for (const auto &info : allBackendInfos()) {
        if (name == info.name)
            return &info;
    }
    // Documented aliases (older bench spellings).
    if (name == "encryption")
        return &backendInfo(ProtectionMode::EncryptionOnly);
    if (name == "obfusmem-auth")
        return &backendInfo(ProtectionMode::ObfusMemAuth);
    if (name == "write-only-oram")
        return &backendInfo(ProtectionMode::WriteOnlyOram);
    return nullptr;
}

const char *
protectionModeName(ProtectionMode mode)
{
    return backendInfo(mode).name;
}

} // namespace obfusmem
