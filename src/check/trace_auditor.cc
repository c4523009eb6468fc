/**
 * @file
 * TraceAuditor implementation.
 */

#include "check/trace_auditor.hh"

#include <ostream>
#include <sstream>

#include "util/assert.hh"
#include "util/logging.hh"

namespace obfusmem {
namespace check {

const char *
invariantName(Invariant invariant)
{
    switch (invariant) {
      case Invariant::ReadThenWritePairing:
        return "read-then-write-pairing";
      case Invariant::UniformMessageLength:
        return "uniform-message-length";
      case Invariant::PadFreshness: return "pad-freshness";
      case Invariant::CounterMonotonic: return "counter-monotonic";
      case Invariant::CounterSync: return "counter-sync";
      case Invariant::DummyCoverage: return "dummy-coverage";
      case Invariant::EndpointIncident: return "endpoint-incident";
    }
    return "?";
}

std::ostream &
operator<<(std::ostream &os, const Violation &v)
{
    os << "[audit] invariant=" << invariantName(v.invariant)
       << " channel=" << v.channel << " tick=" << v.when;
    if (v.wireAddr != 0)
        os << " wireAddr=0x" << std::hex << v.wireAddr << std::dec;
    return os << " : " << v.detail;
}

TraceAuditor::TraceAuditor(const Params &params_,
                           statistics::Group &parent)
    : params(params_), chans(params_.channels),
      statGroup("auditor", &parent),
      violationGroup("violations", &statGroup)
{
    OBF_ASSERT(params.channels > 0, "auditor needs >= 1 channel");
    OBF_ASSERT(params.bucketTicks > 0, "bucketTicks must be nonzero");

    statGroup.addScalar("messages", &messages,
                        "bus messages audited");
    statGroup.addScalar("apparentReads", &apparentReads,
                        "payload-less request messages");
    statGroup.addScalar("apparentWrites", &apparentWrites,
                        "payload-carrying request messages");
    statGroup.addScalar("reusedRequests", &reusedRequests,
                        "requests whose wire address already "
                        "crossed that channel");
    statGroup.addScalar("distinctAddrs", &distinctAddrs,
                        "distinct request wire addresses");
    statGroup.addScalar("hottestAddrCount", &hottestAddrCount,
                        "requests to the hottest wire address");
    statGroup.addScalar("activeBuckets", &activeBuckets,
                        "time buckets with a request on any channel");
    statGroup.addScalar("soloBuckets", &soloBuckets,
                        "active buckets with requests on one channel");
    statGroup.addScalar("toleratedIncidents", &toleratedIncidents,
                        "recoverable endpoint incidents tolerated");
    for (size_t i = 0; i < numInvariants; ++i) {
        violationGroup.addScalar(
            invariantName(static_cast<Invariant>(i)),
            &violationTallies[i]);
    }
}

void
TraceAuditor::addViolation(Invariant invariant, unsigned channel,
                           Tick when, uint64_t wire_addr,
                           std::string detail)
{
    ++violationCount;
    ++violationTallies[static_cast<size_t>(invariant)];
    if (params.warnOnline && violationCount == 1) {
        warn("trace audit: first violation: ",
             invariantName(invariant), " on channel ", channel,
             " at tick ", when, ": ", detail);
    }
    if (findings.size() < params.maxRecordedViolations) {
        findings.push_back(Violation{invariant, channel, when,
                                     wire_addr, std::move(detail)});
    }
}

// --- Wire-level checks ---------------------------------------------

void
TraceAuditor::checkPairing(ChannelAudit &ca, const BusSnoop &snoop)
{
    if (params.uniformPackets) {
        // Uniform scheme: every request message carries a full
        // payload, so all of them must classify as writes.
        if (!snoop.wireIsWrite) {
            addViolation(Invariant::ReadThenWritePairing,
                         snoop.channel, snoop.when, snoop.wireAddr,
                         "payload-less request message under the "
                         "uniform-packet scheme");
        }
        return;
    }
    // Split scheme: strict read-then-write alternation per channel.
    if (ca.phase == 0) {
        if (snoop.wireIsWrite) {
            addViolation(Invariant::ReadThenWritePairing,
                         snoop.channel, snoop.when, snoop.wireAddr,
                         "write message without a preceding read "
                         "(unpaired group)");
            return; // stay in phase 0: next read starts a group
        }
        ca.phase = 1;
        return;
    }
    if (!snoop.wireIsWrite) {
        addViolation(Invariant::ReadThenWritePairing, snoop.channel,
                     snoop.when, snoop.wireAddr,
                     "read message while the previous read's paired "
                     "write is still missing");
        return; // treat this read as the new group's first message
    }
    ca.phase = 0;
}

void
TraceAuditor::checkLength(ChannelAudit &ca, const BusSnoop &snoop)
{
    std::optional<uint32_t> *expect = nullptr;
    const char *klass = nullptr;
    if (snoop.dir == BusDir::ToProcessor) {
        expect = &ca.replyBytes;
        klass = "reply";
    } else if (snoop.wireIsWrite) {
        expect = &ca.writeBytes;
        klass = "request-write";
    } else {
        expect = &ca.readBytes;
        klass = "request-read";
    }
    if (!expect->has_value()) {
        *expect = snoop.bytes;
        return;
    }
    if (**expect != snoop.bytes) {
        std::ostringstream oss;
        oss << klass << " message of " << snoop.bytes
            << " bytes on a channel whose " << klass
            << " messages are " << **expect << " bytes";
        addViolation(Invariant::UniformMessageLength, snoop.channel,
                     snoop.when, snoop.wireAddr, oss.str());
    }
}

void
TraceAuditor::checkFreshness(ChannelAudit &ca, const BusSnoop &snoop)
{
    bool fresh;
    if (snoop.dir == BusDir::ToMemory) {
        uint64_t &seen = ca.toMemWireAddrs[snoop.wireAddr];
        fresh = seen++ == 0;
        ++(fresh ? distinctAddrs : reusedRequests);
        if (static_cast<double>(seen) > hottestAddrCount.value())
            hottestAddrCount.set(static_cast<double>(seen));
    } else {
        fresh = ca.toProcWireAddrs.insert(snoop.wireAddr).second;
    }
    if (!fresh) {
        addViolation(Invariant::PadFreshness, snoop.channel,
                     snoop.when, snoop.wireAddr,
                     "wire header bits repeat on this channel "
                     "(reused pad or plaintext address)");
    }
}

void
TraceAuditor::markBusy(ChannelAudit &ca, Tick when)
{
    const uint64_t bucket = when / params.bucketTicks;
    if (bucket != currentBucket) {
        currentBucket = bucket;
        busyChannels = 0;
    }
    if (ca.busyBucket == bucket + 1)
        return; // this channel is already busy in this bucket
    ca.busyBucket = bucket + 1;
    // A bucket is solo while exactly one channel is busy in it.
    if (++busyChannels == 1) {
        ++activeBuckets;
        if (params.channels > 1)
            ++soloBuckets;
    } else if (busyChannels == 2) {
        soloBuckets += -1;
    }
}

void
TraceAuditor::observe(const BusSnoop &snoop)
{
    if (snoop.channel >= chans.size())
        return; // foreign probe traffic; not ours to judge
    ++messages;
    ChannelAudit &ca = chans[snoop.channel];

    if (snoop.dir == BusDir::ToMemory) {
        ++(snoop.wireIsWrite ? apparentWrites : apparentReads);
        markBusy(ca, snoop.when);
        checkPairing(ca, snoop);
    }
    checkLength(ca, snoop);
    checkFreshness(ca, snoop);
}

// --- Endpoint-level checks -----------------------------------------

void
TraceAuditor::StreamLedger::add(uint64_t first, uint64_t count)
{
    padsConsumed += count;
    uint64_t end = first + count;
    if (!runs.empty() && runs.back().second == first)
        runs.back().second = end;
    else
        runs.emplace_back(first, end);
    if (end > nextFree)
        nextFree = end;
}

bool
TraceAuditor::StreamLedger::sameCoverage(
    const StreamLedger &other) const
{
    return padsConsumed == other.padsConsumed && runs == other.runs;
}

void
TraceAuditor::onPadUse(Tick when, unsigned channel,
                       EndpointSide side, CounterStream stream,
                       uint64_t first, uint64_t count)
{
    OBF_DCHECK(count > 0, "empty pad run reported");
    if (channel >= chans.size())
        return;
    StreamLedger &ledger =
        chans[channel].ledgers[static_cast<unsigned>(side)]
                              [static_cast<unsigned>(stream)];
    if (first < ledger.nextFree) {
        std::ostringstream oss;
        oss << endpointSideName(side) << " side consumed "
            << counterStreamName(stream) << " pads [" << first << ", "
            << first + count << ") but the stream cursor is already "
            << "at " << ledger.nextFree
            << " (pad reuse / counter rollback)";
        addViolation(Invariant::CounterMonotonic, channel, when, 0,
                     oss.str());
    }
    ledger.add(first, count);
}

void
TraceAuditor::onIncident(Tick when, unsigned channel,
                         EndpointSide side, ChannelIncident incident)
{
    if (channel >= chans.size())
        return;

    // A completed re-key restarts the reporting side's data-plane
    // counters at zero under the new epoch key. Reset that side's
    // ledgers so post-epoch pad reports don't trip CounterMonotonic;
    // both endpoints report their own completion, so the CounterSync
    // comparison still runs over matching (post-epoch) coverage.
    if (incident == ChannelIncident::RekeyCompleted) {
        auto s = static_cast<unsigned>(side);
        chans[channel].ledgers[s][0] = StreamLedger{};
        chans[channel].ledgers[s][1] = StreamLedger{};
    }

    bool recoverable = incident != ChannelIncident::ChannelQuarantined;
    if (params.tolerateRecoverableIncidents && recoverable) {
        ++toleratedIncidents;
        return;
    }
    std::ostringstream oss;
    oss << endpointSideName(side) << " side rejected a message: "
        << channelIncidentName(incident);
    addViolation(Invariant::EndpointIncident, channel, when, 0,
                 oss.str());
}

// --- Post-run pass --------------------------------------------------

bool
TraceAuditor::finalize()
{
    if (finalized)
        return ok();
    finalized = true;

    constexpr auto proc =
        static_cast<unsigned>(EndpointSide::Processor);
    constexpr auto mem = static_cast<unsigned>(EndpointSide::Memory);
    constexpr auto req = static_cast<unsigned>(CounterStream::Request);
    constexpr auto resp =
        static_cast<unsigned>(CounterStream::Response);

    for (unsigned c = 0; c < chans.size(); ++c) {
        const ChannelAudit &ca = chans[c];
        // Skip channels no endpoint reported on (plain path runs).
        if (ca.ledgers[proc][req].padsConsumed == 0
            && ca.ledgers[mem][req].padsConsumed == 0) {
            continue;
        }
        if (!ca.ledgers[proc][req].sameCoverage(
                ca.ledgers[mem][req])) {
            std::ostringstream oss;
            oss << "request-stream counters diverged: proc consumed "
                << ca.ledgers[proc][req].padsConsumed
                << " pads (cursor "
                << ca.ledgers[proc][req].nextFree
                << "), mem consumed "
                << ca.ledgers[mem][req].padsConsumed << " (cursor "
                << ca.ledgers[mem][req].nextFree << ")";
            addViolation(Invariant::CounterSync, c, 0, 0, oss.str());
        }
        if (!ca.ledgers[mem][resp].sameCoverage(
                ca.ledgers[proc][resp])) {
            std::ostringstream oss;
            oss << "response-stream counters diverged: mem consumed "
                << ca.ledgers[mem][resp].padsConsumed
                << " pads (cursor "
                << ca.ledgers[mem][resp].nextFree
                << "), proc consumed "
                << ca.ledgers[proc][resp].padsConsumed << " (cursor "
                << ca.ledgers[proc][resp].nextFree << ")";
            addViolation(Invariant::CounterSync, c, 0, 0, oss.str());
        }
    }

    if (params.channelScheme != ChannelScheme::None
        && params.channels > 1 && activeBuckets.value() > 0) {
        double solo = soloBuckets.value() / activeBuckets.value();
        if (solo > params.maxSoloBucketFraction) {
            std::ostringstream oss;
            oss << "inter-channel correlation visible: "
                << (solo * 100.0)
                << "% of active buckets had exactly one busy channel"
                << " (tolerance "
                << (params.maxSoloBucketFraction * 100.0) << "%)";
            addViolation(Invariant::DummyCoverage, 0, 0, 0,
                         oss.str());
        }
    }
    return ok();
}

bool
TraceAuditor::report(std::ostream &os) const
{
    // Stats hold doubles; counts print as integers.
    auto count = [](const statistics::Scalar &s) {
        return static_cast<uint64_t>(s.value());
    };
    os << "trace-audit: " << count(messages) << " messages on "
       << params.channels << " channel(s), "
       << (params.uniformPackets ? "uniform" : "split")
       << " scheme\n";
    for (const Violation &v : findings)
        os << "  " << v << "\n";
    if (violationCount > findings.size()) {
        os << "  ... " << (violationCount - findings.size())
           << " further violations not recorded\n";
    }
    for (size_t i = 0; i < numInvariants; ++i) {
        if (count(violationTallies[i]) == 0)
            continue;
        os << "  total "
           << invariantName(static_cast<Invariant>(i)) << ": "
           << count(violationTallies[i]) << "\n";
    }
    if (count(toleratedIncidents) > 0) {
        os << "  recoverable incidents tolerated: "
           << count(toleratedIncidents) << "\n";
    }
    os << "trace-audit: "
       << (ok() ? "PASS (all invariants upheld)"
                : "FAIL (" + std::to_string(violationCount)
                      + " violations)")
       << "\n";
    return ok();
}

} // namespace check
} // namespace obfusmem
