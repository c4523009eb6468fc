/**
 * @file
 * The exposed processor-memory channel: a half-duplex data bus with
 * finite bandwidth (12.8 GB/s per channel in Table 2). This is the
 * only part of the system an external attacker can observe, so every
 * message carries the bytes that would really appear on the wires and
 * bus probes can tap it: the attacker's probe (check::TraceAuditor)
 * and the wire-trace recorder below.
 */

#ifndef OBFUSMEM_MEM_CHANNEL_BUS_HH
#define OBFUSMEM_MEM_CHANNEL_BUS_HH

#include <deque>
#include <functional>
#include <iosfwd>

#include "sim/sim_object.hh"

namespace obfusmem {

/** Direction of a bus message. */
enum class BusDir : uint8_t { ToMemory, ToProcessor };

/** What an attacker probing the bus wires can see of one message. */
struct BusSnoop
{
    Tick when;
    BusDir dir;
    uint32_t bytes;
    /** Address bits as they appear on the wires (possibly ciphertext). */
    uint64_t wireAddr;
    /** Command bit as it appears on the wires. */
    bool wireIsWrite;
    unsigned channel;
};

/** Passive observer interface (the attacker's probe). */
class BusProbe
{
  public:
    virtual ~BusProbe() = default;
    virtual void observe(const BusSnoop &snoop) = 0;
};

/**
 * Writes each snooped message to a stream as one wire-trace line,
 * `when dir channel bytes W/R hexaddr` with dir `toMem` or `toProc`:
 * exactly the attacker's view. CI byte-compares such traces across
 * recovery on and off (`obfus_audit --dump-trace`) and across shard
 * counts (`fig5_datacenter --trace-out`).
 */
class WireTraceRecorder : public BusProbe
{
  public:
    explicit WireTraceRecorder(std::ostream &out) : out(out) {}

    WireTraceRecorder(const WireTraceRecorder &) = delete;
    WireTraceRecorder &operator=(const WireTraceRecorder &) = delete;

    void observe(const BusSnoop &snoop) override;

  private:
    std::ostream &out;
};

class FaultInjector;

/**
 * What happened to a message in flight, handed to the receiver at
 * delivery. The wire already carried the original burst (the snoop
 * fires before the fault is applied — an attacker injecting faults
 * still saw the transmitted bytes), so corruption and duplication are
 * modeled at the receiving pin: `corrupted` means the receiver
 * latched a flipped bit, `duplicated` means the link retransmitted
 * and the receiver latched the frame twice back-to-back.
 */
struct BusFault
{
    bool corrupted = false;
    bool duplicated = false;
    /** Deterministic entropy (e.g. which header bit flipped). */
    uint64_t entropy = 0;
};

/**
 * One memory channel's exposed bus. Messages are serialized FIFO;
 * a message occupies the bus for bytes/bandwidth (plus a fixed
 * propagation delay), and zero-byte messages model command-bus-only
 * traffic that does not consume data-bus bandwidth.
 */
class ChannelBus : public SimObject
{
  public:
    struct Params
    {
        /** Data bandwidth in bytes per nanosecond (12.8 GB/s). */
        double bytesPerNs = 12.8;
        /** Wire propagation + SerDes delay per message. */
        Tick propagationDelay = 1 * tickPerNs;
        /** Time a zero-byte (command-only) message occupies. */
        Tick commandSlot = 1250; // one 800 MHz bus cycle
    };

    ChannelBus(const std::string &name, EventQueue &eq,
               statistics::Group *parent, unsigned channel_id,
               const Params &params);

    /**
     * Transmit a message. `deliver` fires when the last byte arrives
     * at the far end; a dropped message never delivers.
     *
     * @param dir Direction of travel.
     * @param bytes Data-bus bytes the message occupies.
     * @param snoop_addr Address bits visible on the wires.
     * @param snoop_is_write Command bit visible on the wires.
     * @param deliver Called at delivery time with the fault verdict
     *                (all-clear when no injector is attached).
     */
    void send(BusDir dir, uint32_t bytes, uint64_t snoop_addr,
              bool snoop_is_write,
              std::function<void(const BusFault &)> deliver);

    /** Attach a passive probe (attacker or analysis). */
    void attachProbe(BusProbe *probe) { probes.push_back(probe); }

    /** Attach a fault source (nullptr detaches). Not owned. */
    void setFaultInjector(FaultInjector *inj) { faults = inj; }

    /** True if nothing is in flight or queued. */
    bool idle() const { return !transferring && pending.empty(); }

    /** Fraction of elapsed time the data bus was busy. */
    double utilization() const;

    unsigned channelId() const { return channel; }

  private:
    struct Message
    {
        BusDir dir;
        uint32_t bytes;
        uint64_t snoopAddr;
        bool snoopIsWrite;
        std::function<void(const BusFault &)> deliver;
    };

    void startNext();
    Tick occupancy(uint32_t bytes) const;

    Params params;
    unsigned channel;
    std::deque<Message> pending;
    std::deque<Tick> enqueueTicks;
    bool transferring = false;
    std::vector<BusProbe *> probes;
    FaultInjector *faults = nullptr;

    statistics::Scalar messagesSent;
    statistics::Scalar bytesSent;
    statistics::Scalar busBusyTicks;
    statistics::Average queueDelayNs;
};

} // namespace obfusmem

#endif // OBFUSMEM_MEM_CHANNEL_BUS_HH
