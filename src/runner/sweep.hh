/**
 * @file
 * Parallel sweep runner: run a batch of independent simulations
 * across a thread pool and collect results in submission order.
 *
 * Determinism contract: every job builds its own self-contained
 * System (own EventQueue, own Random instances seeded from the
 * config), so a sweep produces *bit-identical* results whether it
 * runs serially or on N threads — the pool only changes wall-clock
 * time, never simulated outcomes. This invariant is enforced by
 * tests/test_runner.cc.
 */

#ifndef OBFUSMEM_RUNNER_SWEEP_HH
#define OBFUSMEM_RUNNER_SWEEP_HH

#include <type_traits>
#include <vector>

#include "runner/thread_pool.hh"
#include "system/system.hh"

namespace obfusmem {
namespace runner {

/**
 * Job count from the OBFUSMEM_BENCH_JOBS environment knob.
 *
 * Unset, empty or 1 selects the serial path (no pool, no threads —
 * the historical behavior). "0" means "one job per hardware thread".
 * The value is read once and cached.
 */
unsigned jobsFromEnv();

/**
 * Apply @p fn to every index in [0, n) using @p jobs worker threads
 * and return the results ordered by index.
 *
 * With jobs <= 1 (or fewer than two items) this degenerates to a
 * plain serial loop on the calling thread. The result type must be
 * default-constructible (the output vector is pre-sized so each job
 * writes its own slot without synchronization). The first exception
 * thrown by any job is rethrown on the calling thread after all jobs
 * finish (ThreadPool::wait()).
 */
template <typename Fn>
auto
parallelIndexMap(size_t n, unsigned jobs, Fn &&fn)
    -> std::vector<std::decay_t<decltype(fn(size_t{0}))>>
{
    using Result = std::decay_t<decltype(fn(size_t{0}))>;
    std::vector<Result> results(n);

    if (jobs <= 1 || n <= 1) {
        for (size_t i = 0; i < n; ++i)
            results[i] = fn(i);
        return results;
    }

    ThreadPool pool(jobs);
    for (size_t i = 0; i < n; ++i)
        pool.submit([&fn, &results, i] { results[i] = fn(i); });
    pool.wait();
    return results;
}

/**
 * Build, run and tear down one System per config, @p jobs at a time,
 * and return the RunResults in config order.
 */
std::vector<System::RunResult>
runSweep(const std::vector<SystemConfig> &configs, unsigned jobs);

/** runSweep() with the job count from OBFUSMEM_BENCH_JOBS. */
inline std::vector<System::RunResult>
runSweep(const std::vector<SystemConfig> &configs)
{
    return runSweep(configs, jobsFromEnv());
}

} // namespace runner
} // namespace obfusmem

#endif // OBFUSMEM_RUNNER_SWEEP_HH
