/** @file Unit tests for the self-telemetry layer (DESIGN.md §16). */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/telemetry.hh"
#include "sim/event_queue.hh"
#include "sim/host_timer.hh"
#include "sim/stats.hh"

namespace tt
{
namespace
{

TEST(Telemetry, ProbesTrackCurrentAndPeak)
{
    StatSet stats;
    Telemetry telem(stats, 8);
    std::size_t a = 100, b = 50;
    telem.addMemProbe("alpha", [&] { return a; });
    telem.addMemProbe("beta", [&] { return b; });
    telem.registerStats();

    telem.runBegin(); // first sample: total 150
    a = 400;          // peak for alpha...
    telem.sampleMemory(); // total 450 — the total peak
    a = 30;
    b = 80; // peak for beta happens while alpha is small
    telem.sampleMemory();
    telem.runEnd(); // final sample: total 110

    EXPECT_EQ(telem.totalPeakBytes(), 450u);
    EXPECT_DOUBLE_EQ(telem.peakBytesPerNode(), 450.0 / 8);
    ASSERT_EQ(telem.probeResults().size(), 2u);
    EXPECT_EQ(telem.probeResults()[0].name, "alpha");
    EXPECT_EQ(telem.probeResults()[0].peakBytes, 400u);
    EXPECT_EQ(telem.probeResults()[0].finalBytes, 30u);
    EXPECT_EQ(telem.probeResults()[1].name, "beta");
    EXPECT_EQ(telem.probeResults()[1].peakBytes, 80u);
    EXPECT_EQ(telem.probeResults()[1].finalBytes, 80u);
    // Per-probe peaks can sum past the total peak (they need not be
    // simultaneous), but no single probe can exceed it.
    EXPECT_LE(telem.probeResults()[0].peakBytes,
              telem.totalPeakBytes());
    EXPECT_LE(telem.probeResults()[1].peakBytes,
              telem.totalPeakBytes());
    EXPECT_EQ(telem.memSamples(), 4u);
}

TEST(Telemetry, RunEndFoldsStats)
{
    StatSet stats;
    Telemetry telem(stats, 4);
    telem.addMemProbe("probe", [] { return std::size_t{1024}; });
    telem.registerStats();
    telem.runBegin();
    telem.runEnd();
    EXPECT_EQ(stats.get("obs.telemetry.mem.probe.peak_bytes"), 1024u);
    EXPECT_EQ(stats.get("obs.telemetry.mem.total_peak_bytes"), 1024u);
    EXPECT_EQ(stats.get("obs.telemetry.mem.peak_bytes_per_node"),
              256u);
    EXPECT_EQ(stats.get("obs.telemetry.mem.samples"), 2u);
}

TEST(Telemetry, ReportJsonShape)
{
    StatSet stats;
    Telemetry telem(stats, 8);
    telem.addMemProbe("event_queue", [] { return std::size_t{64}; });
    telem.registerStats();
    telem.runBegin();
    telem.runEnd();

    // Memory only, so the whole document is deterministic.
    std::ostringstream oss;
    telem.writeReport(oss);
    EXPECT_EQ(oss.str(),
              "{\n"
              "  \"nodes\": 8,\n"
              "  \"mem\": {\n"
              "    \"samples\": 2,\n"
              "    \"total_peak_bytes\": 64,\n"
              "    \"peak_bytes_per_node\": 8,\n"
              "    \"subsystems\": {\n"
              "      \"event_queue\": {\"final_bytes\": 64, "
              "\"peak_bytes\": 64}\n"
              "    }\n"
              "  }\n"
              "}\n");
}

/**
 * Probe calls over one run of 2 x kMemSample + 1 events on a queue in
 * @p mode, with the telemetry counter attached to it or not.
 */
int
probeCallsOverRun(EventQueue::Mode mode, bool attach)
{
    StatSet stats;
    Telemetry telem(stats, 1);
    int calls = 0;
    telem.addMemProbe("counted", [&calls] {
        ++calls;
        return std::size_t{0};
    });
    telem.registerStats();
    EventQueue eq(mode);
    if (attach)
        eq.setTelemetry(&telem.timer());
    telem.runBegin();
    for (std::uint64_t i = 1; i <= 2 * HostTimer::kMemSample + 1; ++i)
        eq.schedule(i, [] {});
    eq.run();
    telem.runEnd();
    EXPECT_EQ(telem.memSamples(), static_cast<std::uint64_t>(calls));
    return calls;
}

TEST(Telemetry, EventQueuePollsProbesEveryMemSample)
{
    // runBegin, events 4096 and 8192, runEnd; both queue paths.
    EXPECT_EQ(probeCallsOverRun(EventQueue::Mode::Calendar, true), 4);
    EXPECT_EQ(probeCallsOverRun(EventQueue::Mode::ReferenceHeap, true),
              4);
}

TEST(Telemetry, QueueWithoutTelemetryNeverProbes)
{
    // Only runBegin and runEnd poll; the unattached queue adds nothing.
    EXPECT_EQ(probeCallsOverRun(EventQueue::Mode::Calendar, false), 2);
}

} // namespace
} // namespace tt
