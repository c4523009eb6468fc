/**
 * @file
 * The processor-side ObfusMem controller (paper Fig. 3): encrypts
 * commands, addresses and (already memory-encrypted) data with
 * per-channel session keys and counters, pairs every real request
 * with a dummy of the opposite type so the bus always shows
 * read-then-write groups, and injects dummy groups on other channels
 * per the UNOPT/OPT inter-channel schemes.
 */

#ifndef OBFUSMEM_OBFUSMEM_PROC_SIDE_HH
#define OBFUSMEM_OBFUSMEM_PROC_SIDE_HH

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "crypto/ctr_mode.hh"
#include "crypto/dh.hh"
#include "mem/address_map.hh"
#include "obfusmem/audit_hook.hh"
#include "mem/channel_bus.hh"
#include "mem/packet.hh"
#include "obfusmem/mac_engine.hh"
#include "obfusmem/params.hh"
#include "obfusmem/wire_format.hh"
#include "secure/pad_prefetcher.hh"
#include "sim/sim_object.hh"
#include "util/random.hh"
#include "util/secret.hh"

namespace obfusmem {

class ObfusMemMemSide;

/**
 * The processor-side controller for all channels. Implements MemSink,
 * sitting below the memory-encryption engine.
 */
class ObfusMemProcSide : public SimObject, public MemSink
{
  public:
    /**
     * @param session_keys One AES session key per channel (from the
     *        boot-time DH exchange).
     * @param buses One ChannelBus per channel.
     * @param dummy_addrs Reserved dummy block address per channel.
     */
    ObfusMemProcSide(const std::string &name, EventQueue &eq,
                     statistics::Group *parent,
                     const ObfusMemParams &params,
                     const AddressMap &map,
                     OBF_SECRET const std::vector<crypto::Aes128::Key>
                         &session_keys,
                     const std::vector<ChannelBus *> &buses,
                     const std::vector<uint64_t> &dummy_addrs);

    void access(MemPacket pkt, PacketCallback cb) override;

    /**
     * Wire a channel's memory side for the statically dispatched
     * production path. Delivery calls receiveMessage through this
     * pointer directly — no std::function hop per message.
     */
    void
    setMemSide(unsigned channel, ObfusMemMemSide *side)
    {
        channelState[channel].memSide = side;
    }

    /**
     * Wire a request intercept for a channel. The std::function hop
     * survives as the test/tooling override (fault injection, frame
     * capture); when set it takes precedence over the memSide pointer.
     */
    void
    setRequestTarget(unsigned channel,
                     std::function<void(WireMessage &&)> target)
    {
        channelState[channel].toMem = std::move(target);
    }

    /** Replies delivered from a channel's memory side. */
    void receiveReply(unsigned channel, WireMessage &&msg);

    /** Test hook: skew a channel's response counter. */
    void
    skewResponseCounter(unsigned channel, uint64_t delta)
    {
        channelState[channel].respCounter += delta;
        // The ring holds pads for the unskewed counter sequence; drop
        // them so desync is detected exactly as without prefetching.
        channelState[channel].rxPads.invalidate();
    }

    /** Attach the trace auditor's endpoint hook (may be null). */
    void setAuditHook(AuditHook *hook) { audit = hook; }

    /** Whether recovery took a channel out of service. */
    bool channelQuarantined(unsigned channel) const
    {
        return channelState[channel].health
               == ChannelHealth::Quarantined;
    }

  private:
    /** Link state of one channel under the recovery protocol. */
    enum class ChannelHealth : uint8_t
    {
        Active,      ///< normal operation
        Rekeying,    ///< handshake in flight, data traffic held
        Quarantined, ///< re-key failed repeatedly; out of service
    };

    /**
     * One request group's plaintext: the first frame's header, the
     * split scheme's paired second header, and the 64-byte payload of
     * the frame that carries data. The uniform scheme sends `first`
     * with the payload as one frame and leaves `second` unused.
     */
    struct RequestGroup
    {
        WireHeader first{};
        WireHeader second{};
        DataBlock payload{};
    };

    /**
     * A group awaiting its reply. A real read waits with its
     * requester's packet and callback; the reply to any other group
     * (no callback) is discarded.
     */
    struct PendingRead
    {
        MemPacket pkt;
        PacketCallback cb;
        /** Retry state: when and how often the group was (re)sent. */
        Tick lastSend = 0;
        unsigned attempts = 0;
        /** Held so a retransmit rebuilds the group verbatim at fresh
         * counters (a pad is never reused): secret until
         * re-encrypted. */
        OBF_SECRET RequestGroup group{};
    };

    /** A write group waiting in the controller's write buffer. */
    struct QueuedWrite
    {
        MemPacket pkt;
        PacketCallback cb;
    };

    struct ChannelState
    {
        crypto::AesCtr tx; // processor -> memory
        crypto::AesCtr rx; // memory -> processor
        uint64_t reqCounter = 0;
        uint64_t respCounter = 0;
        uint16_t nextTag = 1;
        unsigned outstandingReads = 0;
        uint64_t dummyAddr = 0;
        ChannelBus *bus = nullptr;
        /** Production receiver (static dispatch). */
        ObfusMemMemSide *memSide = nullptr;
        /** Test/tooling intercept; overrides memSide when set. */
        std::function<void(WireMessage &&)> toMem;
        std::unordered_map<uint16_t, PendingRead> pending;
        std::deque<QueuedWrite> writeQueue;
        bool drainingWrites = false;
        /** Timing-oblivious mode: FIFO of requests awaiting an
         * epoch slot, and whether the heartbeat is running. */
        std::deque<QueuedWrite> epochQueue;
        bool heartbeatActive = false;
        /** Counter-ahead pad rings for the two counter streams. */
        PadPrefetcher txPads;
        PadPrefetcher rxPads;

        // --- Recovery / control-plane state -------------------------
        ChannelHealth health = ChannelHealth::Active;
        /** One rearming watchdog event per channel (wheel events
         * cannot be cancelled; the tick stops itself when idle). */
        bool watchdogActive = false;
        /** Control streams under controlKeyFor(session key): stay
         * decryptable while the data-plane key is replaced. */
        crypto::AesCtr ctlTx;
        crypto::AesCtr ctlRx;
        uint64_t ctlReqCounter = 0;
        /** Next expected control reply counter. */
        uint64_t ctlRespCursor = 0;
        /** Re-key handshake in flight. */
        uint32_t rekeyEpoch = 0;
        unsigned rekeyAttempts = 0;
        Tick rekeySentTick = 0;
        std::unique_ptr<crypto::DhEndpoint> dh;
        /** The memory side's handshake response, chunk by chunk. */
        HandshakeAssembly response;
        /** Requests held while the channel re-keys. */
        std::deque<QueuedWrite> rekeyHold;
    };

    /** Route one request after the front-end latency (health-aware). */
    void dispatch(unsigned channel, MemPacket pkt, PacketCallback cb);

    /** Send one request group (real + paired dummy) on a channel. */
    void sendGroup(unsigned channel, MemPacket pkt, PacketCallback cb);

    /**
     * Claim the next data-plane group on a channel: take its six
     * counters, count and report its pads, and fill `pads` from the
     * prefetch ring. Returns the group's first counter. The channel
     * is the bus the group is seen on, so it is public.
     */
    uint64_t claimGroup(OBF_PUBLIC unsigned channel, GroupPads &pads);

    /**
     * Put a group on the wire at `ctr` with its pads. Uniform scheme:
     * one data frame at `ctr`. Split scheme: `first` as a header
     * frame at `ctr`, then `second` with the payload as a data frame
     * at `ctr + 1`. A set `cb` completes `pkt` (a posted write) when
     * the data frame reaches the far pin.
     */
    void emitGroup(unsigned channel, uint64_t ctr, const GroupPads &pads,
                   const RequestGroup &group, MemPacket pkt = {},
                   PacketCallback cb = nullptr);

    /**
     * Tag a group and hold it until its reply arrives. Pass the
     * packet and callback of the real read that waits for the reply;
     * without them the reply is discarded.
     */
    void addPending(ChannelState &cs, RequestGroup &group,
                    MemPacket pkt = {}, PacketCallback cb = nullptr);

    /** Drain buffered write groups per the read-priority policy. */
    void maybeDrainWrites(unsigned channel);

    /** Start heartbeats on every channel (timing-oblivious mode). */
    void ensureHeartbeats();

    /** One epoch tick of a channel's timing-oblivious issue slot. */
    void heartbeat(unsigned channel);

    /** True when nothing is queued or in flight anywhere. */
    bool quiescent() const;

    /** Send an all-dummy group (inter-channel fill). */
    void sendDummyGroup(unsigned channel);

    /** Inject dummies on other channels per the configured scheme. */
    void injectChannelDummies(unsigned active_channel);

    /**
     * Seal a built frame with the MAC of (`hdr`, `mac_ctr`) when
     * authenticating and enqueue it on the channel's bus; the bus
     * callback delivers it through deliverFrame. A set `cb` completes
     * `pkt` (a posted write) when the frame reaches the far pin. The
     * channel is the bus the frame is seen on, so it is public. So is
     * `cb`: it is the requester's completion hook, and whether a frame
     * carries one is simulator plumbing, never wire data or key
     * material.
     */
    void transmit(OBF_PUBLIC unsigned channel, WireMessage msg,
                  const WireHeader &hdr, uint64_t mac_ctr,
                  MemPacket pkt = {},
                  OBF_PUBLIC PacketCallback cb = nullptr);

    /** Schedule zero-delay refills for a channel's depleted rings. */
    void schedulePadRefill(unsigned channel);

    uint64_t dummyAddrFor(unsigned channel, uint64_t real_addr);
    uint16_t allocTag(ChannelState &cs);

    // --- Recovery (see obfusmem/recovery.hh) ------------------------

    /** Arm the per-channel retry watchdog if it is not running. */
    void ensureWatchdog(unsigned channel);

    /** One watchdog period: retransmit overdue groups, escalate. */
    void watchdogTick(unsigned channel);

    /** Rebuild and resend a pending group at fresh counters. */
    void retransmitGroup(unsigned channel, uint16_t tag);

    /** Retries exhausted: renegotiate the channel's session key. */
    void startRekey(unsigned channel);

    /** Send (or resend) the handshake for the next epoch attempt. */
    void sendRekeyRequest(unsigned channel);

    /** Send one request-group-shaped group on the control plane. */
    void sendControlGroup(unsigned channel, const DataBlock &payload);

    /**
     * A reply frame failed header decryption with recovery enabled:
     * trial-resync forward on the reply stream, interpret it as a
     * control-plane response, or discard it without consuming a
     * counter position.
     */
    void recoverReplyFrame(unsigned channel, WireMessage msg);

    /** Accumulate a handshake-response chunk from the memory side. */
    void handleControlReply(unsigned channel,
                            const HandshakeChunk &chunk);

    /** Install the new epoch key and replay outstanding groups. */
    void finishRekey(unsigned channel,
                     const std::vector<uint8_t> &peer_pub);

    /** Give up on a channel after repeated re-key failures. */
    void quarantineChannel(unsigned channel);

    /** Report a request-stream pad run to the auditor, if attached. */
    void notifyPads(unsigned channel, CounterStream stream,
                    uint64_t first, uint64_t count);

    ObfusMemParams params;
    const AddressMap &addrMap;
    MacEngine mac;
    std::vector<ChannelState> channelState;
    Random junkRng;
    Random rekeyRng{0xa11ce000};
    AuditHook *audit = nullptr;

    statistics::Scalar realReads, realWrites;
    statistics::Scalar pairedDummies;
    statistics::Scalar channelFillGroups;
    statistics::Scalar repliesDiscarded;
    statistics::Scalar macFailures, headerDesyncs;
    statistics::Scalar padsUsed;
    statistics::Scalar forwardedFromWriteQueue;
    statistics::Scalar realFillSubstitutions;
    statistics::Scalar pairSubstitutions;
    statistics::Scalar retransmits, framesDiscarded, resyncs;
    statistics::Scalar rekeysStarted, rekeysCompleted, quarantines;
    statistics::Scalar requestsDropped;
    PadPrefetchStats padPrefetch;
};

} // namespace obfusmem

#endif // OBFUSMEM_OBFUSMEM_PROC_SIDE_HH
