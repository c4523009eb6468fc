/**
 * @file
 * Tests for the parallel sweep runner: thread-pool mechanics,
 * ordered results, and the central invariant that a parallel sweep
 * is bit-identical to a serial one (each job's System is fully
 * self-contained, so thread interleaving must not leak into
 * simulated results).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "system/system.hh"

using namespace obfusmem;
using namespace obfusmem::runner;

TEST(ThreadPool, RunsEverySubmittedJob)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, WaitRethrowsAJobException)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([] { throw std::runtime_error("job failed"); });
    pool.submit([&count] { ++count; });
    // wait() still returns only after every job ran.
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(count.load(), 1);
    // The error is reported once, and the pool stays usable.
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(3);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ParallelIndexMap, ResultsComeBackInIndexOrder)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        auto results = parallelIndexMap(
            64, jobs, [](size_t i) { return i * i; });
        ASSERT_EQ(results.size(), 64u);
        for (size_t i = 0; i < results.size(); ++i)
            EXPECT_EQ(results[i], i * i);
    }
}

TEST(ParallelIndexMap, SerialAndParallelAgree)
{
    auto serial = parallelIndexMap(
        33, 1, [](size_t i) { return 3 * i + 1; });
    auto parallel = parallelIndexMap(
        33, 4, [](size_t i) { return 3 * i + 1; });
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelIndexMap, PropagatesExceptions)
{
    auto boom = [](size_t i) -> int {
        if (i == 5)
            throw std::runtime_error("job 5 failed");
        return static_cast<int>(i);
    };
    EXPECT_THROW(parallelIndexMap(10, 4, boom), std::runtime_error);
    EXPECT_THROW(parallelIndexMap(10, 1, boom), std::runtime_error);
}

namespace {

/** Small configs so the determinism sweep stays fast. */
std::vector<SystemConfig>
smallSweepConfigs()
{
    std::vector<SystemConfig> cfgs;
    for (const char *name : {"milc", "sjeng", "hmmer"}) {
        for (ProtectionMode mode :
             {ProtectionMode::Unprotected,
              ProtectionMode::ObfusMemAuth}) {
            SystemConfig cfg;
            cfg.mode = mode;
            cfg.benchmark = name;
            cfg.instrPerCore = 2000;
            cfg.attachObserver = false;
            cfgs.push_back(cfg);
        }
    }
    return cfgs;
}

/**
 * Build, run and tear down one System per config on @p jobs workers,
 * the way bench::sweep drives the runner.
 */
std::vector<System::RunResult>
runSystems(const std::vector<SystemConfig> &cfgs, unsigned jobs)
{
    return parallelIndexMap(cfgs.size(), jobs, [&cfgs](size_t i) {
        System sys(cfgs[i]);
        return sys.run();
    });
}

/** Field-by-field equality: RunResult has no operator==. */
void
expectIdentical(const System::RunResult &a, const System::RunResult &b)
{
    EXPECT_EQ(a.execTicks, b.execTicks);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.avgGapNs, b.avgGapNs);
    EXPECT_EQ(a.cellWrites, b.cellWrites);
    EXPECT_EQ(a.pcmEnergyPj, b.pcmEnergyPj);
    EXPECT_EQ(a.busUtilization, b.busUtilization);
}

} // namespace

TEST(RunSweep, ParallelIsBitIdenticalToSerial)
{
    // The tentpole invariant: OBFUSMEM_BENCH_JOBS changes wall-clock
    // time only, never simulated results.
    const auto cfgs = smallSweepConfigs();
    const auto serial = runSystems(cfgs, 1);
    const auto parallel = runSystems(cfgs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], parallel[i]);
}

TEST(RunSweep, RepeatedParallelRunsAgree)
{
    // No hidden dependence on thread scheduling between runs either.
    const auto cfgs = smallSweepConfigs();
    const auto first = runSystems(cfgs, 3);
    const auto second = runSystems(cfgs, 3);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        expectIdentical(first[i], second[i]);
}
