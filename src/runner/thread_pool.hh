/**
 * @file
 * A minimal fixed-size thread pool for running independent simulation
 * jobs. Each System is single-threaded by design (one EventQueue per
 * System); the pool runs *many* of them concurrently: whole Systems
 * during parameter sweeps, where each job owns its System outright
 * and shares nothing mutable with its siblings, and the shards of the
 * sharded kernel, one job per shard in each epoch
 * (sim/sharded_kernel.hh).
 */

#ifndef OBFUSMEM_RUNNER_THREAD_POOL_HH
#define OBFUSMEM_RUNNER_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace obfusmem {
namespace runner {

/**
 * Fixed-size worker pool with a FIFO job queue.
 *
 * Jobs are arbitrary callables; submission order is preserved by the
 * queue but completion order is not — callers that need ordered
 * results index into a pre-sized output vector (see
 * parallelIndexMap() in sweep.hh).
 */
class ThreadPool
{
  public:
    /** Spin up @p threads workers (at least one). */
    explicit ThreadPool(unsigned threads);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a job. The pool is reusable: submit() may be called
     * again after wait() returned, as often as needed.
     */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished executing, then
     * rethrow the first exception a job threw since the last wait(),
     * if any. The pool's lock orders everything the jobs wrote before
     * what the caller reads after wait() returns.
     */
    void wait();

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers.size());
    }

  private:
    void workerLoop();

    std::mutex mtx;
    std::condition_variable cvJob;   // workers wait for jobs
    std::condition_variable cvIdle;  // wait() waits for drain
    std::deque<std::function<void()>> queue;
    std::vector<std::thread> workers;
    size_t inFlight = 0;
    bool stopping = false;
    std::exception_ptr firstError; ///< for the next wait() to rethrow
};

} // namespace runner
} // namespace obfusmem

#endif // OBFUSMEM_RUNNER_THREAD_POOL_HH
