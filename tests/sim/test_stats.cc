/** @file Unit tests for the counter registry and Histogram. */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "sim/stats.hh"

namespace tt
{
namespace
{

TEST(Stats, CounterBasics)
{
    StatSet s;
    s.counter("a.b").inc();
    s.counter("a.b").inc(4);
    EXPECT_EQ(s.get("a.b"), 5u);
    EXPECT_EQ(s.get("missing"), 0u);
    EXPECT_TRUE(s.hasCounter("a.b"));
    EXPECT_FALSE(s.hasCounter("missing"));
}

TEST(Stats, SameNameSameCounter)
{
    StatSet s;
    Counter& c1 = s.counter("x");
    Counter& c2 = s.counter("x");
    EXPECT_EQ(&c1, &c2);
}

TEST(Stats, HistogramBucketsAndOverflow)
{
    Histogram h(10.0, 4); // [0,10) [10,20) [20,30) [30,40)
    h.sample(5);
    h.sample(15);
    h.sample(35);
    h.sample(99);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 0u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Stats, DumpContainsAllNames)
{
    StatSet s;
    s.counter("alpha").inc(3);
    s.counter("beta");
    std::ostringstream oss;
    s.dump(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("beta"), std::string::npos);
}

TEST(Stats, ResetZeroesEverything)
{
    StatSet s;
    s.counter("c").inc(7);
    s.counter("d").inc(2);
    s.reset();
    EXPECT_EQ(s.get("c"), 0u);
    EXPECT_EQ(s.get("d"), 0u);
    EXPECT_TRUE(s.hasCounter("c"));
}

TEST(Stats, HistogramBoundaryValuesAreDeterministic)
{
    // Bucket i covers [i*width, (i+1)*width): an exact boundary value
    // belongs to the *upper* bucket, for any width.
    Histogram h(10.0, 4);
    h.sample(0);
    h.sample(10);
    h.sample(20);
    h.sample(30);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.overflow(), 0u);

    // The classic FP trap: v/width can land just below the true
    // quotient (e.g. 0.3/0.1 = 2.9999...). Boundaries are i*width
    // *computed in double*: 3*0.1 is the bucket-3 edge and belongs to
    // bucket 3, while double(0.3) sits just below that edge and so
    // deterministically lands in bucket 2 — never split between the
    // two by rounding luck.
    Histogram f(0.1, 8);
    f.sample(0.3);
    f.sample(3 * 0.1);
    EXPECT_EQ(f.buckets()[2], 1u);
    EXPECT_EQ(f.buckets()[3], 1u);
}

TEST(Stats, HistogramEdgeSamples)
{
    Histogram h(10.0, 4);
    h.sample(39.999); // last representable bucket
    h.sample(40);     // first value past the end -> overflow
    h.sample(-1);     // negative -> underflow, never bucket 0
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.buckets()[0], 0u);
    EXPECT_DOUBLE_EQ(h.width(), 10.0);
    EXPECT_EQ(h.bucketCount(), 4u);
    h.reset();
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Stats, WriteJsonIsWellFormedAndComplete)
{
    StatSet s;
    s.counter("net.messages").inc(42);
    s.counter("a.first");

    std::ostringstream oss;
    s.writeJson(oss);
    const std::string out = oss.str();

    // The whole document: one "counters" object, name-sorted, so two
    // dumps of equal content are byte-identical. JSON validity of
    // real dumps is held by stats_lint (tools/check.sh, ctest).
    EXPECT_EQ(out, "{\n  \"counters\": {\n    \"a.first\": 0,\n"
                   "    \"net.messages\": 42\n  }\n}\n");
    std::ostringstream oss2;
    s.writeJson(oss2);
    EXPECT_EQ(out, oss2.str());

    std::ostringstream empty;
    StatSet().writeJson(empty);
    EXPECT_EQ(empty.str(), "{\n  \"counters\": {}\n}\n");
}

TEST(Stats, HistogramNonFiniteSamplesRouteToUnderflow)
{
    // NaN/Inf have no bucket (casting them to an index is UB): they
    // count as underflow.
    Histogram h(10.0, 4);
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(std::numeric_limits<double>::infinity());
    h.sample(-std::numeric_limits<double>::infinity());
    h.sample(15);
    EXPECT_EQ(h.underflow(), 3u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.buckets()[1], 1u);
}

} // namespace
} // namespace tt
