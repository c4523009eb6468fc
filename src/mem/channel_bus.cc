/**
 * @file
 * ChannelBus implementation.
 */

#include "mem/channel_bus.hh"

#include <cmath>
#include <ostream>

#include "mem/fault_injector.hh"
#include "util/assert.hh"

namespace obfusmem {

ChannelBus::ChannelBus(const std::string &name, EventQueue &eq,
                       statistics::Group *parent, unsigned channel_id,
                       const Params &params_)
    : SimObject(name, eq, parent), params(params_), channel(channel_id)
{
    stats().addScalar("messages", &messagesSent,
                      "messages transmitted on the bus");
    stats().addScalar("bytes", &bytesSent, "data-bus bytes transmitted");
    stats().addScalar("busyTicks", &busBusyTicks,
                      "ticks the data bus was occupied");
    stats().addAverage("queueDelayNs", &queueDelayNs,
                       "per-message arbitration queueing delay");
}

Tick
ChannelBus::occupancy(uint32_t bytes) const
{
    if (bytes == 0)
        return params.commandSlot;
    double ns = bytes / params.bytesPerNs;
    return static_cast<Tick>(std::ceil(ns * tickPerNs));
}

void
ChannelBus::send(BusDir dir, uint32_t bytes, uint64_t snoop_addr,
                 bool snoop_is_write,
                 std::function<void(const BusFault &)> deliver)
{
    OBF_ASSERT(deliver != nullptr, "bus message without a receiver");
    // A message is at most header + 64-byte payload + MAC; anything
    // larger means a wire-size accounting bug upstream, which would
    // silently skew every bandwidth and obfuscation result.
    OBF_DCHECK(bytes <= 4096, "implausible bus message of ", bytes,
               " bytes on channel ", channel);
    pending.push_back(Message{dir, bytes, snoop_addr, snoop_is_write,
                              std::move(deliver)});
    enqueueTicks.push_back(curTick());
    if (!transferring)
        startNext();
}

void
ChannelBus::startNext()
{
    if (pending.empty()) {
        transferring = false;
        return;
    }
    transferring = true;

    Message msg = std::move(pending.front());
    pending.pop_front();
    Tick enq = enqueueTicks.front();
    enqueueTicks.pop_front();
    queueDelayNs.sample(ticksToNs(curTick() - enq));

    Tick busy = occupancy(msg.bytes);
    ++messagesSent;
    bytesSent += msg.bytes;
    busBusyTicks += busy;

    // The attacker sees the message as it starts appearing on the bus.
    BusSnoop snoop{curTick(), msg.dir, msg.bytes, msg.snoopAddr,
                   msg.snoopIsWrite, channel};
    for (auto *p : probes)
        p->observe(snoop);

    // Faults apply after the snoop: the transmitted burst was on the
    // wires either way; only what the far end latches differs.
    FaultDecision fd =
        faults ? faults->decide(channel, msg.dir) : FaultDecision{};

    // The bus frees after the burst; propagation overlaps the next
    // message's burst.
    Tick done = busy + params.propagationDelay + fd.extraDelay;
    if (!fd.drop) {
        BusFault fault{fd.corrupt, fd.duplicate, fd.entropy};
        scheduleAfter(done, [d = std::move(msg.deliver), fault]() {
            d(fault);
        });
    }
    scheduleAfter(busy, [this]() { startNext(); });
}

double
ChannelBus::utilization() const
{
    Tick now = curTick();
    if (now == 0)
        return 0.0;
    return busBusyTicks.value() / static_cast<double>(now);
}

void
WireTraceRecorder::observe(const BusSnoop &snoop)
{
    out << snoop.when << ' '
        << (snoop.dir == BusDir::ToMemory ? "toMem" : "toProc") << ' '
        << snoop.channel << ' ' << snoop.bytes << ' '
        << (snoop.wireIsWrite ? 'W' : 'R') << ' ' << std::hex
        << snoop.wireAddr << std::dec << '\n';
}

} // namespace obfusmem
