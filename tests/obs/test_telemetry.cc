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

TEST(HostTimer, OnlyEverySampledEventIsTimed)
{
    HostTimer t;
    for (std::uint64_t i = 0; i < 3 * HostTimer::kTimeSample; ++i) {
        t.eventStart();
        EXPECT_EQ(t.timing(), (i + 1) % HostTimer::kTimeSample == 0);
        t.eventEnd();
        EXPECT_FALSE(t.timing());
    }
    EXPECT_EQ(t.events(), 3 * HostTimer::kTimeSample);
    EXPECT_EQ(t.timedEvents(), 3u);
}

TEST(HostTimer, ScopesChargeAndRestoreCategories)
{
    HostTimer t;
    // Drive to the sampled event so the scopes are live.
    for (std::uint64_t i = 0; i + 1 < HostTimer::kTimeSample; ++i) {
        t.eventStart();
        t.eventEnd();
    }
    t.eventStart();
    ASSERT_TRUE(t.timing());
    {
        TelemScope handler(&t, HostTimer::Cat::Handler);
        {
            // Nested scope: checker time must not stay charged to
            // the handler, and the handler category is restored.
            TelemScope checker(&t, HostTimer::Cat::Checker);
        }
        TelemScope net(&t, HostTimer::Cat::Net);
    }
    t.eventEnd();
    // Every category the scopes passed through took >= 0 tsc, the
    // total event elapsed covers all of them, and nothing was
    // charged to never-entered categories.
    const std::uint64_t sum = t.catTsc(HostTimer::Cat::Dispatch) +
                              t.catTsc(HostTimer::Cat::Handler) +
                              t.catTsc(HostTimer::Cat::Net) +
                              t.catTsc(HostTimer::Cat::Checker) +
                              t.catTsc(HostTimer::Cat::Transport);
    EXPECT_GE(t.eventTsc(), sum > 0 ? sum - sum : 0u); // sum >= 0
    EXPECT_LE(sum, t.eventTsc() + 1000); // same clock, tiny skew slack
    EXPECT_EQ(t.catTsc(HostTimer::Cat::Transport), 0u);
}

TEST(HostTimer, ScopesAreFreeWhenNotTiming)
{
    HostTimer t;
    t.eventStart(); // event 1 of kTimeSample: not sampled
    ASSERT_FALSE(t.timing());
    {
        TelemScope s(&t, HostTimer::Cat::Handler);
        TelemScope null_timer(nullptr, HostTimer::Cat::Net);
    }
    t.eventEnd();
    EXPECT_EQ(t.catTsc(HostTimer::Cat::Handler), 0u);
    EXPECT_EQ(t.timedEvents(), 0u);
}

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

TEST(Telemetry, FinalizeFoldsStats)
{
    StatSet stats;
    Telemetry telem(stats, 4);
    telem.addMemProbe("probe", [] { return std::size_t{1024}; });
    telem.registerStats();
    telem.runBegin();
    telem.runEnd();
    telem.finalize();
    EXPECT_EQ(stats.get("obs.telemetry.mem.probe.peak_bytes"), 1024u);
    EXPECT_EQ(stats.get("obs.telemetry.mem.total_peak_bytes"), 1024u);
    EXPECT_EQ(stats.get("obs.telemetry.mem.peak_bytes_per_node"),
              256u);
    EXPECT_EQ(stats.get("obs.telemetry.mem.samples"), 2u);
    EXPECT_EQ(stats.get("obs.host.sample_every"),
              HostTimer::kTimeSample);
    // Attribution can never overshoot the measured wall time: the
    // extrapolation is clamped (catScale), so the folded percentage
    // stays within [0, 100].
    EXPECT_LE(stats.get("obs.host.attributed_pct"), 100u);
}

TEST(Telemetry, ReportJsonShape)
{
    StatSet stats;
    Telemetry telem(stats, 8);
    telem.addMemProbe("event_queue", [] { return std::size_t{64}; });
    telem.registerStats();
    telem.runBegin();
    // A few events through the timer so host fields are non-trivial.
    for (int i = 0; i < 64; ++i) {
        telem.timer().eventStart();
        telem.timer().eventEnd();
    }
    telem.runEnd();

    std::ostringstream oss;
    telem.writeReport(oss);
    const std::string out = oss.str();
    for (const char* key :
         {"\"nodes\": 8", "\"mem\"", "\"samples\"",
          "\"total_peak_bytes\"", "\"peak_bytes_per_node\"",
          "\"subsystems\"", "\"event_queue\"", "\"final_bytes\"",
          "\"peak_bytes\"", "\"host\"", "\"wall_ms\"",
          "\"sample_every\"", "\"events\": 64", "\"timed_events\": 8",
          "\"attributed_pct\"", "\"categories_ms\"", "\"dispatch\"",
          "\"handler\"", "\"net\"", "\"checker\"", "\"transport\"",
          "\"engine\""}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
    EXPECT_EQ(out.find("nan"), std::string::npos);
    EXPECT_GE(telem.attributedPct(), 0.0);
    EXPECT_LE(telem.attributedPct(), 100.0);
}

TEST(Telemetry, AttributionClampedToWall)
{
    StatSet stats;
    Telemetry telem(stats, 1);
    telem.registerStats();
    telem.runBegin();
    // Time every sampled event with real TSC reads; the x8
    // extrapolation could overshoot the short wall interval, and the
    // clamp must hold regardless.
    for (int i = 0; i < 1024; ++i) {
        telem.timer().eventStart();
        {
            TelemScope s(&telem.timer(), HostTimer::Cat::Handler);
        }
        telem.timer().eventEnd();
    }
    telem.runEnd();
    double sum = telem.engineNs();
    for (auto c : {HostTimer::Cat::Dispatch, HostTimer::Cat::Handler,
                   HostTimer::Cat::Net, HostTimer::Cat::Checker,
                   HostTimer::Cat::Transport})
        sum += telem.catNs(c);
    EXPECT_LE(telem.attributedPct(), 100.0 + 1e-9);
    EXPECT_LE(sum, telem.wallMs() * 1e6 * (1 + 1e-9));
}

} // namespace
} // namespace tt
