/**
 * @file
 * Sweep runner implementation.
 */

#include "runner/sweep.hh"

#include "util/env.hh"

namespace obfusmem {
namespace runner {

unsigned
jobsFromEnv()
{
    // 0 means "one job per hardware thread"; huge values are capped
    // (a sweep never has thousands of points). Latched on first use.
    static const unsigned jobs = env::jobs("OBFUSMEM_BENCH_JOBS", 1);
    return jobs;
}

} // namespace runner
} // namespace obfusmem
