/**
 * @file
 * Inter-channel obfuscation tests (paper Sec. 3.4): the UNOPT and OPT
 * dummy-injection schemes versus no cross-channel protection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "system/system.hh"

using namespace obfusmem;

namespace {

SystemConfig
channelConfig(ChannelScheme scheme, unsigned channels)
{
    SystemConfig cfg;
    cfg.mode = ProtectionMode::ObfusMemAuth;
    cfg.benchmark = "milc";
    cfg.instrPerCore = 20000;
    cfg.cores = 2;
    cfg.channels = channels;
    cfg.obfusmem.channelScheme = scheme;
    return cfg;
}

/**
 * Fraction of active time buckets in which requests crossed exactly
 * one channel, from the attacker probe's stats.
 */
double
soloBucketFraction(System &sys)
{
    const double active =
        sys.rootStats().scalarValue("auditor.activeBuckets");
    return active ? sys.rootStats().scalarValue("auditor.soloBuckets")
                        / active
                  : 0.0;
}

} // namespace

TEST(Channels, FunctionalAcrossChannels)
{
    SystemConfig cfg = channelConfig(ChannelScheme::Opt, 4);
    System sys(cfg);
    // Blocks landing on all four channels (1 KB interleave).
    for (int i = 0; i < 8; ++i) {
        DataBlock data;
        data.fill(static_cast<uint8_t>(0x80 + i));
        sys.timedStore(0, i * 1024ull, data, [](Tick) {});
    }
    sys.eventQueue().run();
    sys.flushAndDrain();
    for (int i = 0; i < 8; ++i) {
        DataBlock expect;
        expect.fill(static_cast<uint8_t>(0x80 + i));
        EXPECT_EQ(sys.functionalRead(i * 1024ull), expect) << i;
    }
}

TEST(Channels, NoSchemeLeaksSoloChannelActivity)
{
    System sys(channelConfig(ChannelScheme::None, 4));
    sys.run();
    // With no cross-channel dummies, many time windows show traffic
    // on exactly one channel: the spatial pattern leaks through the
    // per-channel pins.
    EXPECT_GT(soloBucketFraction(sys), 0.03);
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.channelFillGroups"), 0u);
}

TEST(Channels, OptHidesSoloChannelActivity)
{
    System none_sys(channelConfig(ChannelScheme::None, 4));
    none_sys.run();
    System opt_sys(channelConfig(ChannelScheme::Opt, 4));
    opt_sys.run();
    EXPECT_LT(soloBucketFraction(opt_sys),
              soloBucketFraction(none_sys) / 2);
    EXPECT_GT(
        opt_sys.rootStats().scalarValue("obfusProc.channelFillGroups"),
        0u);
}

TEST(Channels, UnoptInjectsAtLeastAsManyDummiesAsOpt)
{
    System opt_sys(channelConfig(ChannelScheme::Opt, 4));
    opt_sys.run();
    System unopt_sys(channelConfig(ChannelScheme::Unopt, 4));
    unopt_sys.run();
    const char *fills = "obfusProc.channelFillGroups";
    EXPECT_GE(unopt_sys.rootStats().scalarValue(fills),
              opt_sys.rootStats().scalarValue(fills));
}

TEST(Channels, UnoptIsSlowerOrEqualToOpt)
{
    System opt_sys(channelConfig(ChannelScheme::Opt, 8));
    auto opt = opt_sys.run();
    System unopt_sys(channelConfig(ChannelScheme::Unopt, 8));
    auto unopt = unopt_sys.run();
    // Observation 6: OPT limits the overhead as channels scale.
    EXPECT_GE(unopt.execTicks, opt.execTicks);
}

TEST(Channels, TrafficRoughlyBalancedUnderOpt)
{
    System sys(channelConfig(ChannelScheme::Opt, 4));
    sys.run();
    double total = 0, min_count = INFINITY, max_count = 0;
    for (unsigned c = 0; c < 4; ++c) {
        const double n = sys.rootStats().scalarValue(
            "bus" + std::to_string(c) + ".messages");
        total += n;
        min_count = std::min(min_count, n);
        max_count = std::max(max_count, n);
    }
    ASSERT_GT(total, 0u);
    // All channels see comparable traffic.
    EXPECT_GT(min_count, max_count / 4);
}

TEST(Channels, SingleChannelNeedsNoInjection)
{
    System sys(channelConfig(ChannelScheme::Opt, 1));
    sys.run();
    EXPECT_EQ(sys.rootStats().scalarValue("obfusProc.channelFillGroups"), 0u);
}

class ChannelCountSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ChannelCountSweep, MoreChannelsDoNotHurtMuch)
{
    // Adding memory channels adds bandwidth; the channel-fill
    // dummies cost a little, but must stay within the modest
    // overhead band of the paper's Fig. 5.
    System narrow(channelConfig(ChannelScheme::Opt, 1));
    auto one = narrow.run();
    System wide(channelConfig(ChannelScheme::Opt, GetParam()));
    auto many = wide.run();
    EXPECT_LE(many.execTicks, one.execTicks * 23 / 20);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChannelCountSweep,
                         ::testing::Values(2u, 4u, 8u));

TEST(Channels, CounterSyncHoldsOnEveryChannel)
{
    System sys(channelConfig(ChannelScheme::Unopt, 4));
    sys.run();
    for (auto &side : sys.memSides()) {
        EXPECT_EQ(side->stats().scalarValue("headerDesyncs"), 0u);
        EXPECT_EQ(side->stats().scalarValue("macFailures"), 0u);
    }
}
