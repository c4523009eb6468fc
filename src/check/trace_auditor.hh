/**
 * @file
 * Obliviousness trace auditor.
 *
 * ObfusMem's security argument is an invariant over the bus trace
 * (paper Observations 1-3 and Sec. 3.5): every channel must show
 * indistinguishable read-then-write request groups, all messages of a
 * class must be equal-length ciphertext, per-channel counters must be
 * strictly monotonic and synchronized between the processor and
 * memory endpoints, no pad may ever be consumed twice, and under the
 * UNOPT/OPT inter-channel schemes no channel may carry traffic alone.
 * Membuster-style off-chip attacks recover address bits and access
 * timing the moment any of these silently break.
 *
 * The TraceAuditor machine-checks all of them. It taps the exposed
 * wires as a BusProbe (exactly the attacker's vantage point, so a
 * pass means the *observable* trace is clean) and receives trusted
 * endpoint reports through the AuditHook interface (so counter and
 * pad discipline are checked against what the controllers actually
 * burned). Checks run online as messages cross the bus; finalize()
 * runs the post-run pass (counter synchronization, dummy coverage)
 * and report() renders a structured, CI-greppable diagnostic with a
 * boolean verdict suitable for a non-zero process exit.
 *
 * It is also the simulator's one attacker probe (paper Secs. 2.3,
 * 3.2-3.4): online it keeps what a snooper learns from the wires -
 * the apparent request types, wire-address reuse and the hottest
 * address (temporal pattern, dictionary handle), the footprint, and
 * how often a single channel is busy alone (inter-channel pattern).
 * These measures, the violations per invariant and the tolerated
 * incidents are scalars of its `auditor` stats group, read by name.
 */

#ifndef OBFUSMEM_CHECK_TRACE_AUDITOR_HH
#define OBFUSMEM_CHECK_TRACE_AUDITOR_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mem/channel_bus.hh"
#include "obfusmem/audit_hook.hh"
#include "obfusmem/params.hh"
#include "util/stats.hh"

namespace obfusmem {
namespace check {

/** The machine-checked security invariants. */
enum class Invariant
{
    /**
     * Split scheme: to-memory traffic on each channel is a strict
     * alternation of a payload-less read message and a payload-
     * carrying write message (one request group). Uniform scheme:
     * every request message carries a full payload.
     */
    ReadThenWritePairing,
    /** Every message of a wire class has one fixed size. */
    UniformMessageLength,
    /**
     * Wire proxy for pad freshness: the snooped (ciphertext) header
     * bits never repeat on a channel+direction. A repeat means a
     * reused pad or plaintext on the wires.
     */
    PadFreshness,
    /**
     * Endpoint counter streams advance strictly monotonically; an
     * overlap is a pad consumed twice.
     */
    CounterMonotonic,
    /**
     * Both endpoints of a channel consumed exactly the same counter
     * values per stream (paper Sec. 3.5 synchronization).
     */
    CounterSync,
    /**
     * Under UNOPT/OPT, no more than the configured fraction of active
     * time buckets may show exactly one busy channel.
     */
    DummyCoverage,
    /** A trusted endpoint rejected a message (desync / MAC / tag). */
    EndpointIncident,
};

constexpr size_t numInvariants =
    static_cast<size_t>(Invariant::EndpointIncident) + 1;

/** Stable, greppable invariant name (also its violation stat). */
const char *invariantName(Invariant invariant);

/** One audit finding, with enough context to locate the packet. */
struct Violation
{
    Invariant invariant;
    unsigned channel;
    /** Simulated tick of the offending event (0 for post-run). */
    Tick when;
    /** Wire address bits of the offending packet (0 if n/a). */
    uint64_t wireAddr;
    std::string detail;
};

std::ostream &operator<<(std::ostream &os, const Violation &v);

/**
 * Online + post-run verifier of the obliviousness invariants, and the
 * attacker's measures of the wire trace.
 */
class TraceAuditor : public BusProbe, public AuditHook
{
  public:
    struct Params
    {
        unsigned channels = 1;
        /** Wire discipline expected on the trace (paper Sec. 3.3/7). */
        bool uniformPackets = false;
        /** Inter-channel scheme the trace claims to implement. */
        ChannelScheme channelScheme = ChannelScheme::Opt;
        /** Time bucket for inter-channel activity analysis. */
        Tick bucketTicks = 200 * tickPerNs;
        /**
         * Tolerated fraction of active buckets with a single busy
         * channel (run head/tail effects); above it, DummyCoverage
         * fires.
         */
        double maxSoloBucketFraction = 0.05;
        /** Violations recorded verbatim; the rest are counted. */
        size_t maxRecordedViolations = 64;
        /** warn() at the first violation while the run progresses. */
        bool warnOnline = true;
        /**
         * Fault-tolerant runs: endpoint incidents that the recovery
         * protocol handles in-band (desync, MAC mismatch, discarded
         * frames, resyncs, re-keys) are tallied but not violations —
         * under injected faults they are the system *working*. A
         * quarantine still always fires EndpointIncident: it means
         * recovery gave up. The structural wire invariants are never
         * relaxed.
         */
        bool tolerateRecoverableIncidents = false;
    };

    /**
     * Registers the `auditor` stats group under @p parent:
     *  - messages: bus messages audited, both directions;
     *  - apparentReads / apparentWrites: request messages without /
     *    with a payload, as the command bit on the wires shows them;
     *  - reusedRequests: request messages whose wire address already
     *    crossed that channel toward memory;
     *  - distinctAddrs: distinct request wire addresses, per channel,
     *    summed;
     *  - hottestAddrCount: most request messages one wire address
     *    carried on one channel (a dictionary-attack handle);
     *  - activeBuckets: time buckets in which a request crossed any
     *    channel;
     *  - soloBuckets: active buckets in which requests crossed
     *    exactly one channel (only counted with channels > 1);
     *  - toleratedIncidents: recoverable endpoint incidents tolerated
     *    under injected faults;
     *  - violations.<invariant name>: violations of each invariant.
     * Replies count as audited messages but are no requests and mark
     * no bucket busy. Every measure is exact at any time of the run.
     */
    TraceAuditor(const Params &params, statistics::Group &parent);

    TraceAuditor(const TraceAuditor &) = delete;
    TraceAuditor &operator=(const TraceAuditor &) = delete;

    // --- BusProbe: the attacker's vantage point ----------------------
    void observe(const BusSnoop &snoop) override;

    // --- AuditHook: trusted endpoint reports -------------------------
    void onPadUse(Tick when, unsigned channel, EndpointSide side,
                  CounterStream stream, uint64_t first,
                  uint64_t count) override;
    void onIncident(Tick when, unsigned channel, EndpointSide side,
                    ChannelIncident incident) override;

    /**
     * Post-run pass: counter synchronization across endpoints and
     * inter-channel dummy coverage. Idempotent.
     *
     * @return true when the whole trace upheld every invariant.
     */
    bool finalize();

    /** No violation so far (call after finalize() for the verdict). */
    bool ok() const { return violationCount == 0; }

    /** Recorded findings (capped at maxRecordedViolations). */
    const std::vector<Violation> &violations() const
    {
        return findings;
    }

    /**
     * Render a structured report.
     * @return ok(), so `return auditor.report(std::cerr) ? 0 : 1;`
     *         is the whole CI exit protocol.
     */
    bool report(std::ostream &os) const;

  private:
    /** Coverage ledger of one (channel, side, stream). */
    struct StreamLedger
    {
        /** Lowest counter value never consumed (monotonic cursor). */
        uint64_t nextFree = 0;
        uint64_t padsConsumed = 0;
        /** Merged [first, end) runs, in consumption order. */
        std::vector<std::pair<uint64_t, uint64_t>> runs;

        void add(uint64_t first, uint64_t count);
        bool sameCoverage(const StreamLedger &other) const;
    };

    struct ChannelAudit
    {
        /** Split-scheme group phase: 0 expects read, 1 write. */
        unsigned phase = 0;
        /** Request messages seen per wire address. */
        std::unordered_map<uint64_t, uint64_t> toMemWireAddrs;
        std::unordered_set<uint64_t> toProcWireAddrs;
        /** Last time bucket a request crossed this channel, plus 1
         *  (0: none yet). */
        uint64_t busyBucket = 0;
        /** Established wire sizes per message class. */
        std::optional<uint32_t> readBytes;
        std::optional<uint32_t> writeBytes;
        std::optional<uint32_t> replyBytes;
        /** [side][stream] pad ledgers. */
        StreamLedger ledgers[2][2];
    };

    void addViolation(Invariant invariant, unsigned channel,
                      Tick when, uint64_t wire_addr,
                      std::string detail);
    void markBusy(ChannelAudit &ca, Tick when);
    void checkPairing(ChannelAudit &ca, const BusSnoop &snoop);
    void checkLength(ChannelAudit &ca, const BusSnoop &snoop);
    void checkFreshness(ChannelAudit &ca, const BusSnoop &snoop);

    Params params;
    std::vector<ChannelAudit> chans;
    std::vector<Violation> findings;
    uint64_t violationCount = 0;
    bool finalized = false;

    /** Bucket markBusy() last saw, and how many channels it holds. */
    uint64_t currentBucket = 0;
    unsigned busyChannels = 0;

    statistics::Group statGroup;
    statistics::Group violationGroup;
    statistics::Scalar messages;
    statistics::Scalar apparentReads;
    statistics::Scalar apparentWrites;
    statistics::Scalar reusedRequests;
    statistics::Scalar distinctAddrs;
    statistics::Scalar hottestAddrCount;
    statistics::Scalar activeBuckets;
    statistics::Scalar soloBuckets;
    statistics::Scalar toleratedIncidents;
    /** Per-invariant tallies, indexed by the Invariant enum. */
    statistics::Scalar violationTallies[numInvariants];
};

} // namespace check
} // namespace obfusmem

#endif // OBFUSMEM_CHECK_TRACE_AUDITOR_HH
