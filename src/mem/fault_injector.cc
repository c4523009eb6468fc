/**
 * @file
 * FaultInjector implementation.
 */

#include "mem/fault_injector.hh"

#include "mem/channel_bus.hh"
#include "util/env.hh"

namespace obfusmem {

FaultInjector::Params
FaultInjector::Params::fromEnv()
{
    Params p;
    p.seed = env::u64("OBFUSMEM_FAULT_SEED", p.seed);
    p.dropProb = env::f64("OBFUSMEM_FAULT_DROP", 0);
    p.corruptProb = env::f64("OBFUSMEM_FAULT_CORRUPT", 0);
    p.delayProb = env::f64("OBFUSMEM_FAULT_DELAY", 0);
    p.dupProb = env::f64("OBFUSMEM_FAULT_DUP", 0);
    p.delayTicks = env::u64("OBFUSMEM_FAULT_DELAY_NS", 100,
                            UINT64_MAX / tickPerNs)
                   * tickPerNs;
    return p;
}

FaultInjector::FaultInjector(const Params &params_)
    : params(params_), rng(params_.seed)
{
}

void
FaultInjector::regStats(statistics::Group &g)
{
    g.addScalar("dropped", &dropped, "bus messages dropped");
    g.addScalar("corrupted", &corrupted, "bus messages bit-flipped");
    g.addScalar("delayed", &delayed, "bus messages delayed in flight");
    g.addScalar("duplicated", &duplicated,
                "bus messages delivered twice");
}

FaultDecision
FaultInjector::decide(unsigned, BusDir)
{
    FaultDecision d;
    // Always burn the same number of draws per message so one fault
    // class firing does not shift the pattern of the others.
    bool drop = rng.chance(params.dropProb);
    bool corrupt = rng.chance(params.corruptProb);
    bool delay = rng.chance(params.delayProb);
    bool dup = rng.chance(params.dupProb);
    d.entropy = rng.next();

    if (drop) {
        d.drop = true;
        ++dropped;
        return d; // a dropped message cannot also corrupt/delay/dup
    }
    if (corrupt) {
        d.corrupt = true;
        ++corrupted;
    }
    if (delay) {
        d.extraDelay = params.delayTicks;
        ++delayed;
    }
    if (dup) {
        d.duplicate = true;
        ++duplicated;
    }
    return d;
}

} // namespace obfusmem
