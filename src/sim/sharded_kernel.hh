/**
 * @file
 * Sharded deterministic simulation kernel: runs many event queues
 * (one per simulated socket/endpoint) in parallel as jobs on a pool of
 * shard workers, synchronized by conservative-lookahead epoch
 * barriers.
 *
 * Time is divided into epochs of `lookahead` ticks. Within an epoch
 * every shard executes its endpoints' events independently — legal
 * because the only inter-endpoint coupling is through post(), and the
 * kernel enforces that a post made during epoch E can only target a
 * tick at or after the start of epoch E+1 (the conservative
 * lookahead: any physical link crossing shards must have latency >=
 * the epoch length; the fixed channel/interconnect latency is the
 * natural window). Each shard appends its posts to its own outbox;
 * at the epoch barrier, while no worker runs, the calling thread
 * merges the outboxes in a shard-layout-independent order (when,
 * source endpoint, post order) and schedules every event into its
 * destination queue, so simulated results — wire traces, stats,
 * event order — are bit-identical at 1 shard and at N.
 *
 * Params::shards sets the worker count (1 = serial on the calling
 * thread); `fig5_datacenter --shards N` resolves it, 0 meaning one per
 * hardware thread.
 */

#ifndef OBFUSMEM_SIM_SHARDED_KERNEL_HH
#define OBFUSMEM_SIM_SHARDED_KERNEL_HH

#include <memory>
#include <vector>

#include "sim/event_queue.hh"

namespace obfusmem {

namespace runner {
class ThreadPool;
}

class ShardedKernel
{
  public:
    struct Params
    {
        /**
         * Worker shards. 1 runs everything serially on the calling
         * thread — through the same epoch/merge code path, which is
         * what makes the shards=1 vs N comparison meaningful.
         * Clamped to the endpoint count.
         */
        unsigned shards = 1;
        /**
         * Epoch length in ticks. Every cross-shard post must be
         * scheduled at least this far past the start of the epoch it
         * was posted in; the natural choice is the (minimum) latency
         * of the physical link that crosses shards.
         */
        Tick lookahead = 0;
    };

    explicit ShardedKernel(const Params &params);
    ~ShardedKernel();

    ShardedKernel(const ShardedKernel &) = delete;
    ShardedKernel &operator=(const ShardedKernel &) = delete;

    /**
     * Register an endpoint (one independently steppable event queue).
     * Endpoints are assigned to shards round-robin in registration
     * order. All endpoints must be registered before the first run().
     * @return The endpoint id used for post().
     */
    unsigned addEndpoint(EventQueue &eq);

    /**
     * Post a callback to run on endpoint @p dst's queue at absolute
     * tick @p when. Must be called from @p src's shard during a run
     * phase (i.e. from inside an executing event), and @p when must
     * respect the lookahead: at or past the end of the current epoch.
     * Panics otherwise — a violation would make results depend on the
     * shard layout.
     */
    void post(unsigned src, unsigned dst, Tick when,
              EventQueue::Callback cb);

    /** Summary of one run() call. */
    struct RunSummary
    {
        uint64_t epochs = 0;
        uint64_t eventsExecuted = 0;
        uint64_t crossMessages = 0;
        /** Tick the kernel clock reached (last epoch boundary). */
        Tick endTick = 0;
    };

    /**
     * Run epochs until every endpoint queue is empty. Posts made
     * during an epoch are scheduled at its barrier, so a message
     * crossing an otherwise idle epoch boundary keeps the loop alive.
     */
    RunSummary run();

    unsigned shards() const { return shardCount; }
    unsigned endpoints() const
    {
        return static_cast<unsigned>(queues.size());
    }

    /** Register the kernel counters as the `shardkernel` group. */
    void attachStats(statistics::Group &parent);

  private:
    /** One cross-shard message: run `cb` on endpoint `dst` at `when`. */
    struct CrossEvent
    {
        Tick when;
        unsigned src; ///< source endpoint id (global, not shard)
        unsigned dst; ///< destination endpoint id
        EventQueue::Callback cb;
    };

    void seal();
    void runShard(unsigned shard);
    /**
     * Merge every shard's outbox and schedule the events into their
     * destination queues. Called between rounds, on the calling
     * thread, while no worker runs.
     */
    void deliverPosts();

    Params params;
    unsigned shardCount = 1; ///< effective count, fixed at seal()
    std::vector<EventQueue *> queues;
    std::vector<unsigned> shardOf;
    /// Endpoint ids per shard, ascending (run order in a round).
    std::vector<std::vector<unsigned>> owned;
    /// Posts of the running round, one outbox per source shard; only
    /// that shard's job appends to it.
    std::vector<std::vector<CrossEvent>> outboxes;
    /// Merge buffer, kept across rounds so its capacity is reused.
    std::vector<CrossEvent> merged;
    /// Shard workers (shards > 1 only); the pool's submit/wait
    /// handshake publishes each round's writes to the next.
    std::unique_ptr<runner::ThreadPool> workers;
    bool sealed = false;

    uint64_t rounds = 0;
    /// End tick of the epoch currently running (the post() horizon).
    /// Written between rounds, read by shard jobs during rounds.
    Tick curEpochEnd = 0;

    statistics::Scalar statEpochs;
    /// Cross-shard posts delivered so far. A post is delivered at the
    /// barrier that ends its round, so at every barrier the posted
    /// and drained counts are this one value.
    statistics::Scalar statCross;
    std::unique_ptr<statistics::Group> statGroup;
};

} // namespace obfusmem

#endif // OBFUSMEM_SIM_SHARDED_KERNEL_HH
