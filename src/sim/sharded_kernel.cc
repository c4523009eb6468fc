/**
 * @file
 * ShardedKernel implementation: the epoch loop.
 */

#include "sim/sharded_kernel.hh"

#include <algorithm>

#include "runner/thread_pool.hh"
#include "util/assert.hh"

namespace obfusmem {

namespace {

/// Shard owned by the calling thread during a round (post() misuse
/// check); outside any round no shard is current.
constexpr unsigned noShard = 0xffffffffu;
thread_local unsigned tlsShard = noShard;

} // namespace

ShardedKernel::ShardedKernel(const Params &params_) : params(params_)
{
    panic_if(params.lookahead == 0,
             "sharded kernel needs a non-zero lookahead window");
}

ShardedKernel::~ShardedKernel() = default;

unsigned
ShardedKernel::addEndpoint(EventQueue &eq)
{
    panic_if(sealed, "endpoint registered after the first run()");
    queues.push_back(&eq);
    return static_cast<unsigned>(queues.size() - 1);
}

void
ShardedKernel::seal()
{
    if (sealed)
        return;
    panic_if(queues.empty(), "sharded kernel has no endpoints");
    shardCount = params.shards ? params.shards : 1;
    if (shardCount > queues.size())
        shardCount = static_cast<unsigned>(queues.size());

    // Round-robin endpoint placement: with homogeneous sockets this
    // balances work; the placement never affects simulated results,
    // only wall clock.
    shardOf.resize(queues.size());
    owned.assign(shardCount, {});
    for (unsigned e = 0; e < queues.size(); ++e) {
        shardOf[e] = e % shardCount;
        owned[e % shardCount].push_back(e);
    }
    outboxes.resize(shardCount);
    if (shardCount > 1)
        workers = std::make_unique<runner::ThreadPool>(shardCount);
    sealed = true;
}

void
ShardedKernel::post(unsigned src, unsigned dst, Tick when,
                    EventQueue::Callback cb)
{
    // The whole determinism argument rests on this: an event posted
    // during epoch E lands at or after the start of epoch E+1, so no
    // shard can ever need an event another shard has not yet sent.
    panic_if(when < curEpochEnd,
             "cross-shard post at tick ", when,
             " violates the lookahead horizon ", curEpochEnd,
             " (link latency shorter than the epoch window?)");
    OBF_DCHECK(sealed && src < queues.size() && dst < queues.size(),
               "cross-shard post between unknown endpoints ", src,
               " -> ", dst, " or before run()");
    OBF_DCHECK(tlsShard == shardOf[src],
               "post for endpoint ", src, " from the wrong shard");
    outboxes[shardOf[src]].push_back(
        CrossEvent{when, src, dst, std::move(cb)});
}

void
ShardedKernel::runShard(unsigned shard)
{
    tlsShard = shard;
    // Run the epoch window [curEpochEnd - lookahead, curEpochEnd):
    // run() executes events with when <= limit, so the limit is the
    // last tick inside the window. Each queue's clock advances to the
    // limit even when it drains early, keeping all shards' clocks in
    // lockstep at the barrier.
    for (unsigned e : owned[shard])
        queues[e]->run(curEpochEnd - 1);
    tlsShard = noShard;
}

void
ShardedKernel::deliverPosts()
{
    for (std::vector<CrossEvent> &box : outboxes) {
        for (CrossEvent &ev : box)
            merged.push_back(std::move(ev));
        box.clear();
    }
    // A source endpoint posts from one shard only, so its posts sit
    // in one outbox in post order, and the stable sort keeps that
    // order among its ties. The result is (when, source, post order)
    // whatever the shard layout, and scheduling in that order assigns
    // every destination queue the same sequence numbers at 1 shard
    // and at N.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const CrossEvent &a, const CrossEvent &b) {
                         if (a.when != b.when)
                             return a.when < b.when;
                         return a.src < b.src;
                     });
    for (CrossEvent &ev : merged)
        queues[ev.dst]->schedule(ev.when, std::move(ev.cb));
    statCross += static_cast<double>(merged.size());
    merged.clear();
}

ShardedKernel::RunSummary
ShardedKernel::run()
{
    seal();
    RunSummary sum;
    uint64_t events_before = 0;
    for (EventQueue *eq : queues)
        events_before += eq->eventsExecuted();
    const uint64_t rounds_before = rounds;

    for (;;) {
        // Between rounds no shard job runs, so reading queue sizes is
        // safe. The last round's posts are already scheduled.
        size_t queued = 0;
        for (EventQueue *eq : queues)
            queued += eq->size();
        if (queued == 0)
            break;

        curEpochEnd = (rounds + 1) * params.lookahead;
        if (shardCount == 1) {
            runShard(0);
        } else {
            // wait() also rethrows a job's exception, after every
            // shard has stopped touching the kernel.
            for (unsigned s = 0; s < shardCount; ++s)
                workers->submit([this, s]() { runShard(s); });
            workers->wait();
        }
        deliverPosts();
        ++rounds;
        statEpochs += 1;
    }

    sum.epochs = rounds - rounds_before;
    for (EventQueue *eq : queues)
        sum.eventsExecuted += eq->eventsExecuted();
    sum.eventsExecuted -= events_before;
    sum.crossMessages = static_cast<uint64_t>(statCross.value());
    sum.endTick = rounds * params.lookahead;
    return sum;
}

void
ShardedKernel::attachStats(statistics::Group &parent)
{
    panic_if(statGroup != nullptr, "kernel stats already attached");
    statGroup =
        std::make_unique<statistics::Group>("shardkernel", &parent);
    statGroup->addScalar("epochs", &statEpochs,
                         "epoch barriers executed");
    statGroup->addScalar("crossPosted", &statCross,
                         "cross-shard events posted to mailboxes");
    statGroup->addScalar("crossDrained", &statCross,
                         "cross-shard events drained into shard queues");
}

} // namespace obfusmem
