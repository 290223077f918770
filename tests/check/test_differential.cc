/**
 * @file
 * Differential no-false-negative suite (DESIGN.md §13): every
 * violation the byte-granular paranoid oracle reports on a seeded
 * protocol mutation must also be reported by the fast shadow engine.
 * The corpus spans ≥20 mutations: Nth-occurrence skip/corrupt knobs
 * in the Stache handlers (recall-downgrade, invalidation, returned
 * data) and the DirNNB handlers (invalidate, recall-downgrade).
 *
 * The simulation is deterministic and the checker is a pure observer,
 * so running the identical machine twice — once per checker mode —
 * compares the two engines on the exact same event stream.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "check/protocol_checker.hh"
#include "tests/helpers.hh"

namespace tt
{
namespace
{

using test::DirRig;
using test::StacheRig;

constexpr int kNodes = 3;
constexpr int kRounds = 12;

/** Rotating writer + all-readers: a steady diet of grants, upgrades,
 *  invalidations, recalls and downgrades on one contended block. */
test::FnApp::Body
contendedBody(Machine& m, Addr a)
{
    return [&m, a](Cpu& cpu) -> Task<void> {
        for (int r = 0; r < kRounds; ++r) {
            if (cpu.id() == r % kNodes)
                co_await cpu.write<int>(a, r * 100 + cpu.id());
            co_await m.barrier().wait(cpu);
            co_await cpu.read<int>(a);
            co_await m.barrier().wait(cpu);
        }
    };
}

std::set<std::string>
invariants(const ProtocolChecker& chk)
{
    std::set<std::string> s;
    for (const auto& v : chk.violations())
        s.insert(v.invariant);
    return s;
}

/**
 * Run the Stache rig under one checker mode; return the invariants.
 * A planted mutation may eventually trip one of the protocol's own
 * internal asserts (e.g. onInval finding a writable copy); that panic
 * is deterministic — identical in both modes — so the violations the
 * checker recorded at the event boundaries before it remain a fair
 * differential comparison. Only a completed run is finalized.
 */
std::set<std::string>
runStache(const StacheParams& sp, ProtocolChecker::Mode mode)
{
    test::ExpectLeaksInScope allowAbandonedFrames;
    StacheRig rig(kNodes, {}, {}, sp);
    ProtocolChecker chk(*rig.machine, mode);
    chk.attachTyphoon(*rig.mem, *rig.stache);
    const auto rec = test::checkedRecorder(rig, chk);

    Addr a = rig.stache->shmalloc(4096, /*home=*/0);
    try {
        rig.run(contendedBody(*rig.machine, a));
        chk.finalize();
    } catch (const std::exception&) {
        // Panic unwound out of Machine::run; keep what was recorded.
    }
    return invariants(chk);
}

std::set<std::string>
runDir(const DirParams& dp, ProtocolChecker::Mode mode)
{
    test::ExpectLeaksInScope allowAbandonedFrames;
    DirRig rig(kNodes, {}, dp);
    ProtocolChecker chk(*rig.machine, mode);
    chk.attachDirnnb(*rig.mem);
    const auto rec = test::checkedRecorder(rig, chk);

    Addr a = rig.mem->shmalloc(4096, /*home=*/0);
    try {
        rig.run(contendedBody(*rig.machine, a));
        chk.finalize();
    } catch (const std::exception&) {
        // Panic unwound out of Machine::run; keep what was recorded.
    }
    return invariants(chk);
}

/** The core assertion: fast misses nothing the oracle catches. */
void
expectNoFalseNegatives(const std::set<std::string>& paranoid,
                       const std::set<std::string>& fast,
                       const std::string& label)
{
    for (const auto& inv : paranoid) {
        EXPECT_TRUE(fast.count(inv))
            << label << ": paranoid reported '" << inv
            << "' but the fast engine stayed silent (false negative)";
    }
}

TEST(CheckDifferential, HealthyRunsAreCleanInBothModes)
{
    EXPECT_TRUE(runStache({}, ProtocolChecker::Mode::Paranoid).empty());
    EXPECT_TRUE(runStache({}, ProtocolChecker::Mode::Fast).empty());
    EXPECT_TRUE(runDir({}, ProtocolChecker::Mode::Paranoid).empty());
    EXPECT_TRUE(runDir({}, ProtocolChecker::Mode::Fast).empty());
}

TEST(CheckDifferential, StacheSkippedDowngradeCorpus)
{
    int caught = 0;
    for (std::uint32_t nth = 1; nth <= 4; ++nth) {
        StacheParams sp;
        sp.faultSkipDowngradeNth = nth;
        const auto paranoid =
            runStache(sp, ProtocolChecker::Mode::Paranoid);
        const auto fast = runStache(sp, ProtocolChecker::Mode::Fast);
        const std::string label =
            "stache skip-downgrade nth=" + std::to_string(nth);
        expectNoFalseNegatives(paranoid, fast, label);
        if (!paranoid.empty()) {
            ++caught;
            EXPECT_FALSE(fast.empty()) << label;
        }
    }
    // The corpus must actually bite: the knob range covers occurring
    // downgrades, so the oracle must fire on (at least most of) them.
    EXPECT_GE(caught, 3) << "mutation corpus too weak";
}

TEST(CheckDifferential, StacheSkippedInvalidationCorpus)
{
    int caught = 0;
    for (std::uint32_t nth = 1; nth <= 4; ++nth) {
        StacheParams sp;
        sp.faultSkipInvalNth = nth;
        const auto paranoid =
            runStache(sp, ProtocolChecker::Mode::Paranoid);
        const auto fast = runStache(sp, ProtocolChecker::Mode::Fast);
        const std::string label =
            "stache skip-inval nth=" + std::to_string(nth);
        expectNoFalseNegatives(paranoid, fast, label);
        if (!paranoid.empty()) {
            ++caught;
            EXPECT_FALSE(fast.empty()) << label;
        }
    }
    EXPECT_GE(caught, 3) << "mutation corpus too weak";
}

TEST(CheckDifferential, StacheCorruptedPutDataCorpus)
{
    int caught = 0;
    for (std::uint32_t nth = 1; nth <= 4; ++nth) {
        StacheParams sp;
        sp.faultCorruptPutNth = nth;
        const auto paranoid =
            runStache(sp, ProtocolChecker::Mode::Paranoid);
        const auto fast = runStache(sp, ProtocolChecker::Mode::Fast);
        const std::string label =
            "stache corrupt-put nth=" + std::to_string(nth);
        expectNoFalseNegatives(paranoid, fast, label);
        if (!paranoid.empty()) {
            ++caught;
            EXPECT_FALSE(fast.empty()) << label;
        }
    }
    EXPECT_GE(caught, 3) << "mutation corpus too weak";
}

TEST(CheckDifferential, DirnnbSkippedInvalidateCorpus)
{
    int caught = 0;
    for (std::uint32_t nth = 1; nth <= 4; ++nth) {
        DirParams dp;
        dp.faultSkipInvalidateNth = nth;
        const auto paranoid = runDir(dp, ProtocolChecker::Mode::Paranoid);
        const auto fast = runDir(dp, ProtocolChecker::Mode::Fast);
        const std::string label =
            "dirnnb skip-invalidate nth=" + std::to_string(nth);
        expectNoFalseNegatives(paranoid, fast, label);
        if (!paranoid.empty()) {
            ++caught;
            EXPECT_FALSE(fast.empty()) << label;
        }
    }
    EXPECT_GE(caught, 3) << "mutation corpus too weak";
}

TEST(CheckDifferential, DirnnbSkippedDowngradeCorpus)
{
    int caught = 0;
    for (std::uint32_t nth = 1; nth <= 4; ++nth) {
        DirParams dp;
        dp.faultSkipDowngradeNth = nth;
        const auto paranoid = runDir(dp, ProtocolChecker::Mode::Paranoid);
        const auto fast = runDir(dp, ProtocolChecker::Mode::Fast);
        const std::string label =
            "dirnnb skip-downgrade nth=" + std::to_string(nth);
        expectNoFalseNegatives(paranoid, fast, label);
        if (!paranoid.empty()) {
            ++caught;
            EXPECT_FALSE(fast.empty()) << label;
        }
    }
    EXPECT_GE(caught, 3) << "mutation corpus too weak";
}

/** The two legacy boolean knobs stay in the corpus (every occurrence
 *  broken, not just the Nth). */
TEST(CheckDifferential, LegacyBooleanKnobs)
{
    {
        StacheParams sp;
        sp.faultSkipDowngrade = true;
        const auto paranoid =
            runStache(sp, ProtocolChecker::Mode::Paranoid);
        const auto fast = runStache(sp, ProtocolChecker::Mode::Fast);
        expectNoFalseNegatives(paranoid, fast, "stache legacy bool");
        EXPECT_FALSE(paranoid.empty());
        EXPECT_FALSE(fast.empty());
    }
    {
        DirParams dp;
        dp.faultSkipInvalidate = true;
        const auto paranoid = runDir(dp, ProtocolChecker::Mode::Paranoid);
        const auto fast = runDir(dp, ProtocolChecker::Mode::Fast);
        expectNoFalseNegatives(paranoid, fast, "dirnnb legacy bool");
        EXPECT_FALSE(paranoid.empty());
        EXPECT_FALSE(fast.empty());
    }
}

} // namespace
} // namespace tt
