/**
 * @file
 * Unit tests for the utility substrate: bit operations, the
 * deterministic PRNG, and the statistics package.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "sim/types.hh"
#include "util/bitops.hh"
#include "util/env.hh"
#include "util/random.hh"
#include "util/stats.hh"

using namespace obfusmem;

TEST(BitOps, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(6));
}

TEST(BitOps, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1ull << 63), 63u);
}

TEST(BitOps, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(BitOps, BitsExtraction)
{
    EXPECT_EQ(bits(0xff00, 8, 8), 0xffu);
    EXPECT_EQ(bits(0xdeadbeef, 0, 4), 0xfu);
    EXPECT_EQ(bits(0xdeadbeef, 28, 4), 0xdu);
    EXPECT_EQ(bits(~0ull, 0, 64), ~0ull);
    EXPECT_EQ(bits(0x1234, 4, 0), 0u);
}

TEST(BitOps, Rounding)
{
    EXPECT_EQ(roundUp(0, 64), 0u);
    EXPECT_EQ(roundUp(1, 64), 64u);
    EXPECT_EQ(roundUp(64, 64), 64u);
    EXPECT_EQ(roundDown(127, 64), 64u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
}

TEST(Random, Deterministic)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Random, RandUnderBounds)
{
    Random rng(7);
    for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.randUnder(bound), bound);
    }
}

TEST(Random, RandUnderCoversAllValues)
{
    Random rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.randUnder(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Random, RandRangeInclusive)
{
    Random rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        uint64_t v = rng.randRange(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo |= v == 5;
        saw_hi |= v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, DoubleInUnitInterval)
{
    Random rng(5);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.randDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Random, ChanceEdgeCases)
{
    Random rng(9);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Random, ChanceApproximatesProbability)
{
    Random rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / double(n), 0.3, 0.02);
}

TEST(Random, GeometricMean)
{
    Random rng(17);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.geometric(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Random, GeometricMinimumOne)
{
    Random rng(19);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.geometric(1.5), 1u);
    EXPECT_EQ(rng.geometric(0.5), 1u);
}

TEST(Random, FillBytesDeterministic)
{
    Random a(23), b(23);
    uint8_t buf1[37], buf2[37];
    a.fillBytes(buf1, sizeof(buf1));
    b.fillBytes(buf2, sizeof(buf2));
    EXPECT_EQ(memcmp(buf1, buf2, sizeof(buf1)), 0);
}

TEST(Stats, ScalarAccumulates)
{
    statistics::Scalar s;
    EXPECT_EQ(s.value(), 0.0);
    s += 2.5;
    ++s;
    s++;
    EXPECT_EQ(s.value(), 4.5);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
}

TEST(Stats, AverageComputes)
{
    statistics::Average a;
    EXPECT_EQ(a.value(), 0.0);
    a.sample(1);
    a.sample(2);
    a.sample(3);
    EXPECT_DOUBLE_EQ(a.value(), 2.0);
    EXPECT_EQ(a.samples(), 3u);
    EXPECT_DOUBLE_EQ(a.total(), 6.0);
}

TEST(Stats, HistogramBuckets)
{
    statistics::Histogram h(0, 10, 10);
    h.sample(-1); // underflow
    h.sample(0);
    h.sample(5.5);
    h.sample(9.99);
    h.sample(100); // overflow
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[5], 1u);
    EXPECT_EQ(h.buckets()[9], 1u);
    EXPECT_EQ(h.minSample(), -1);
    EXPECT_EQ(h.maxSample(), 100);
}

TEST(Stats, GroupHierarchyAndDump)
{
    statistics::Group root("root", nullptr);
    statistics::Group child("child", &root);
    statistics::Scalar s;
    s += 42;
    child.addScalar("counter", &s, "a counter");
    EXPECT_EQ(child.fullName(), "root.child");

    std::ostringstream oss;
    root.dump(oss);
    EXPECT_NE(oss.str().find("root.child.counter"), std::string::npos);
    EXPECT_NE(oss.str().find("42"), std::string::npos);
    EXPECT_EQ(child.scalarValue("counter"), 42.0);
}

TEST(StatsDeathTest, ScalarValuePanicsOnAMisspelledName)
{
    // Benches and tests read counters by name: a typo must fail
    // loudly, never read as 0.
    statistics::Group root("root", nullptr);
    statistics::Group child("child", &root);
    statistics::Scalar s;
    child.addScalar("counter", &s);
    EXPECT_EQ(root.scalarValue("child.counter"), 0.0);
    EXPECT_DEATH(root.scalarValue("child.countr"),
                 "no scalar stat named countr in group root.child");
    EXPECT_DEATH(root.scalarValue("chld.counter"),
                 "no child group named chld in group root");
}

TEST(Stats, HistogramIgnoresNonFiniteForMinMaxAndMean)
{
    statistics::Histogram h(0, 10, 10);
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(std::numeric_limits<double>::infinity());
    h.sample(-std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_EQ(h.finiteSamples(), 0u);
    EXPECT_EQ(h.mean(), 0.0);

    h.sample(4.0);
    EXPECT_EQ(h.finiteSamples(), 1u);
    EXPECT_EQ(h.minSample(), 4.0);
    EXPECT_EQ(h.maxSample(), 4.0);
    EXPECT_EQ(h.mean(), 4.0);
}

TEST(Stats, EmptyHistogramDumpsDashForMinMax)
{
    statistics::Group root("root", nullptr);
    statistics::Histogram h(0, 10, 10);
    root.addHistogram("lat", &h, "latency");
    std::ostringstream oss;
    root.dump(oss);
    EXPECT_NE(oss.str().find("root.lat.min"), std::string::npos);
    EXPECT_NE(oss.str().find("-"), std::string::npos);

    h.sample(2.0);
    std::ostringstream oss2;
    root.dump(oss2);
    EXPECT_NE(oss2.str().find("2.00"), std::string::npos);
}

TEST(Env, U64RejectsMalformedValues)
{
    setenv("OBFUSMEM_TEST_KNOB", "123", 1);
    EXPECT_EQ(env::u64("OBFUSMEM_TEST_KNOB", 7), 123u);

    // strtoull would silently accept all of these; the knob parser
    // must warn-and-default instead.
    for (const char *bad :
         {" 42", "+42", "-1", "42x", "", "0x10",
          "99999999999999999999999999"}) {
        setenv("OBFUSMEM_TEST_KNOB", bad, 1);
        EXPECT_EQ(env::u64("OBFUSMEM_TEST_KNOB", 7), 7u) << bad;
    }

    // A value above the caller's bound warn-and-defaults as well,
    // instead of being truncated or wrapped by the caller; the bound
    // itself is accepted.
    struct Bounded
    {
        const char *value;
        uint64_t max;
    };
    for (const Bounded &b : {
             Bounded{"1025", 1024},
             Bounded{"1000000000", 1024},
             Bounded{"4294967296", UINT32_MAX},
             Bounded{"18446744073709552", UINT64_MAX / tickPerNs},
         }) {
        setenv("OBFUSMEM_TEST_KNOB", b.value, 1);
        EXPECT_EQ(env::u64("OBFUSMEM_TEST_KNOB", 7, b.max), 7u)
            << b.value;
    }
    setenv("OBFUSMEM_TEST_KNOB", "1024", 1);
    EXPECT_EQ(env::u64("OBFUSMEM_TEST_KNOB", 7, 1024), 1024u);
    setenv("OBFUSMEM_TEST_KNOB", "18446744073709551", 1);
    EXPECT_EQ(env::u64("OBFUSMEM_TEST_KNOB", 7, UINT64_MAX / tickPerNs),
              UINT64_MAX / tickPerNs);

    unsetenv("OBFUSMEM_TEST_KNOB");
    EXPECT_EQ(env::u64("OBFUSMEM_TEST_KNOB", 7), 7u);
}

TEST(Env, F64ParsesProbabilitiesAndRejectsJunk)
{
    setenv("OBFUSMEM_TEST_KNOB", "0.125", 1);
    EXPECT_DOUBLE_EQ(env::f64("OBFUSMEM_TEST_KNOB", 0.5), 0.125);
    setenv("OBFUSMEM_TEST_KNOB", ".5", 1);
    EXPECT_DOUBLE_EQ(env::f64("OBFUSMEM_TEST_KNOB", 0.0), 0.5);

    for (const char *bad :
         {" 0.5", "+0.5", "-0.5", "nan", "inf", "0.5x", ""}) {
        setenv("OBFUSMEM_TEST_KNOB", bad, 1);
        EXPECT_DOUBLE_EQ(env::f64("OBFUSMEM_TEST_KNOB", 0.25), 0.25)
            << bad;
    }
    unsetenv("OBFUSMEM_TEST_KNOB");
    EXPECT_DOUBLE_EQ(env::f64("OBFUSMEM_TEST_KNOB", 0.25), 0.25);
}

TEST(Env, JobsParsesAutoDetectAndCap)
{
    setenv("OBFUSMEM_TEST_KNOB", "4", 1);
    EXPECT_EQ(env::jobs("OBFUSMEM_TEST_KNOB", 1), 4u);

    // 0 means one worker per hardware thread (>= 1 on any host).
    setenv("OBFUSMEM_TEST_KNOB", "0", 1);
    EXPECT_GE(env::jobs("OBFUSMEM_TEST_KNOB", 1), 1u);

    // Typo'd huge values clamp instead of spawning thousands.
    setenv("OBFUSMEM_TEST_KNOB", "100000", 1);
    EXPECT_EQ(env::jobs("OBFUSMEM_TEST_KNOB", 1), 256u);
    EXPECT_EQ(env::jobs("OBFUSMEM_TEST_KNOB", 1, 8), 8u);

    // Malformed values fall back to the default, like u64.
    setenv("OBFUSMEM_TEST_KNOB", "many", 1);
    EXPECT_EQ(env::jobs("OBFUSMEM_TEST_KNOB", 3), 3u);

    unsetenv("OBFUSMEM_TEST_KNOB");
    EXPECT_EQ(env::jobs("OBFUSMEM_TEST_KNOB", 2), 2u);
    // An unset knob with a 0 default also auto-detects.
    EXPECT_GE(env::jobs("OBFUSMEM_TEST_KNOB", 0), 1u);
}
