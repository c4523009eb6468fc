/**
 * @file
 * ThreadPool implementation.
 */

#include "runner/thread_pool.hh"

#include <utility>

#include "util/assert.hh"

namespace obfusmem {
namespace runner {

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mtx);
        stopping = true;
    }
    cvJob.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    OBF_ASSERT(job, "null job submitted to thread pool");
    {
        std::unique_lock<std::mutex> lock(mtx);
        OBF_ASSERT(!stopping, "submit() after pool shutdown");
        queue.push_back(std::move(job));
    }
    cvJob.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mtx);
    cvIdle.wait(lock,
                [this] { return queue.empty() && inFlight == 0; });
    if (std::exception_ptr err = std::exchange(firstError, nullptr))
        std::rethrow_exception(err);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mtx);
            cvJob.wait(lock, [this] {
                return stopping || !queue.empty();
            });
            if (queue.empty()) {
                // stopping && empty: drain finished, worker exits.
                return;
            }
            job = std::move(queue.front());
            queue.pop_front();
            ++inFlight;
        }
        std::exception_ptr err;
        try {
            job();
        } catch (...) {
            err = std::current_exception();
        }
        {
            std::unique_lock<std::mutex> lock(mtx);
            if (err && !firstError)
                firstError = err;
            --inFlight;
            if (queue.empty() && inFlight == 0)
                cvIdle.notify_all();
        }
    }
}

} // namespace runner
} // namespace obfusmem
