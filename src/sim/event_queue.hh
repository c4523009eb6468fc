/**
 * @file
 * The discrete-event simulation kernel: a time-ordered queue of
 * callbacks with deterministic FIFO ordering among same-tick events.
 *
 * The hot path is allocation-free at steady state: events live in
 * pooled slab nodes (recycled through a free list) with the callback
 * capture stored inline in the node (InlineFunction), and ordering is
 * maintained by a timing wheel — a 2^16-slot bucket array covering the
 * near future in O(1) per event — backed by a binary min-heap overflow
 * tier for events beyond the wheel horizon. A runtime knob
 * (`OBFUSMEM_EVQ_IMPL=heap|wheel`) routes everything through the heap
 * tier instead, as an A/B cross-check; both implementations execute
 * events in the exact same (when, seq) order, so all simulation
 * results are bit-identical.
 */

#ifndef OBFUSMEM_SIM_EVENT_QUEUE_HH
#define OBFUSMEM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"
#include "util/stats.hh"

namespace obfusmem {

/** Which ordering structure backs the event queue. */
enum class EvqImpl : uint8_t {
    Wheel, ///< timing wheel + overflow heap (default)
    Heap,  ///< binary heap only (cross-check / A-B baseline)
};

/**
 * Central event queue. All timing behaviour in the simulator is
 * expressed by scheduling callbacks here.
 */
class EventQueue
{
  public:
    /**
     * Inline capture budget for scheduled callbacks. Sized for the
     * largest hot-path closure in the tree (proc_side's receiveReply
     * tail: a moved pending-entry — MemPacket + PacketCallback +
     * flags — plus a 64-byte data block). A capture that outgrows
     * this fails to compile at the schedule() call site.
     */
    static constexpr std::size_t callbackCapacity = 232;

    using Callback = InlineFunction<void(), callbackCapacity>;

    EventQueue() : EventQueue(defaultImpl()) {}
    explicit EventQueue(EvqImpl impl);

    /**
     * Implementation selected by `OBFUSMEM_EVQ_IMPL` (`heap` or
     * `wheel`; anything else, including unset, means wheel). Read
     * once at first use.
     */
    static EvqImpl defaultImpl();

    EvqImpl impl() const { return implChoice; }

    /** Current simulated time. */
    Tick curTick() const { return now; }

    /** Schedule a callback at an absolute tick (>= curTick). */
    void schedule(Tick when, Callback cb);

    /** Schedule a callback `delay` ticks from now. */
    void
    scheduleAfter(Tick delay, Callback cb)
    {
        schedule(now + delay, std::move(cb));
    }

    /** True if no events are pending. */
    bool empty() const { return pending == 0; }

    /** Number of pending events. */
    size_t size() const { return pending; }

    /**
     * Run events until the queue drains or the time limit is passed.
     *
     * On return, curTick() has advanced to `limit` even if the queue
     * drained earlier — except in the `limit == maxTick` case, which
     * means "drain everything" rather than "run to the end of time":
     * there curTick() stays at the tick of the last executed event
     * (time only advances as far as simulated activity did).
     *
     * @param limit Stop before executing events later than this tick.
     * @return Number of events executed by this call, i.e. the delta
     *         of eventsExecuted() across the call.
     */
    uint64_t run(Tick limit = maxTick);

    /**
     * Execute a single event if one is pending within the limit.
     * @return true if an event was executed.
     */
    bool step(Tick limit = maxTick);

    /** Total events executed since construction. */
    uint64_t eventsExecuted() const { return executed; }

    /** Far events promoted from the overflow heap into the wheel. */
    uint64_t overflowPromotions() const { return promotions; }

    /** Maximum number of simultaneously pending events seen. */
    size_t poolHighWater() const { return highWater; }

    /** Current capacity of the event node pool, in nodes. */
    size_t poolCapacity() const { return slabs.size() * slabNodes; }

    /**
     * Register the kernel counters as an `eventq` stats group under
     * `parent` (appears in System::dumpStats). Call at most once.
     */
    void attachStats(statistics::Group &parent);

    /// Wheel geometry: 2^16 one-tick slots. Chosen to cover the
    /// common device delays (tCL 13.75 ns, tBURST 5 ns, bus slots
    /// 1.25 ns — all well under the 65.5 ns horizon at 1 tick = 1 ps);
    /// only rare long compositions (tRCD + tWR row evictions) take
    /// the overflow tier.
    static constexpr unsigned wheelBits = 16;
    static constexpr Tick wheelSpan = Tick(1) << wheelBits;

  private:
    /// Pooled event node. `next` doubles as the intrusive link for
    /// both the per-bucket FIFO chain and the free list.
    struct EventNode
    {
        Tick when = 0;
        uint64_t seq = 0;
        uint32_t next = nilIdx;
        Callback cb;
    };

    /// Overflow-tier entry: a POD mirror of (when, seq) plus the
    /// node handle, so heap sifts move 24 bytes instead of a node.
    struct FarEvent
    {
        Tick when;
        uint64_t seq;
        uint32_t idx;
    };

    struct FarLater
    {
        bool
        operator()(const FarEvent &a, const FarEvent &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    static constexpr uint32_t nilIdx = 0xffffffffu;
    static constexpr unsigned slabShift = 10;
    static constexpr size_t slabNodes = size_t(1) << slabShift;
    static constexpr size_t wheelSlots = size_t(1) << wheelBits;

    EventNode &
    node(uint32_t idx)
    {
        return slabs[idx >> slabShift][idx & (slabNodes - 1)];
    }

    uint32_t allocNode();
    void freeNode(uint32_t idx);

    void wheelInsert(uint32_t idx);
    uint32_t popBucket(size_t bucket);
    size_t findOccupiedFrom(size_t start) const;
    Tick nextWheelTick() const;
    void promoteFar();

    // --- node pool -------------------------------------------------
    std::vector<std::unique_ptr<EventNode[]>> slabs;
    uint32_t freeHead = nilIdx;
    size_t liveNodes = 0;
    size_t highWater = 0;

    // --- timing wheel (allocated only in Wheel mode) ---------------
    // The window is anchored to `now`: the wheel holds exactly the
    // events with when in [now, now+span); farther events wait in the
    // overflow heap and are promoted at the top of each step as the
    // window slides forward. Anchoring to `now` (rather than a base
    // re-set on drain) means a standing event population with short
    // delays never touches the heap tier.
    std::vector<uint32_t> bucketHead; ///< wheelSlots entries
    std::vector<uint32_t> bucketTail;
    std::vector<uint64_t> bitsL0; ///< one bit per bucket
    std::vector<uint64_t> bitsL1; ///< one bit per bitsL0 word
    size_t wheelCount = 0;

    // --- overflow / heap tier --------------------------------------
    std::priority_queue<FarEvent, std::vector<FarEvent>, FarLater> far;

    EvqImpl implChoice;
    Tick now = 0;
    uint64_t nextSeq = 0;
    size_t pending = 0;
    uint64_t executed = 0;
    uint64_t promotions = 0;

    // --- stats surface ---------------------------------------------
    std::unique_ptr<statistics::Group> statGroup;
    statistics::Scalar statExecuted;
    statistics::Scalar statPoolHighWater;
    statistics::Scalar statOverflowPromotions;
    statistics::Scalar statPoolNodes;
};

} // namespace obfusmem

#endif // OBFUSMEM_SIM_EVENT_QUEUE_HH
