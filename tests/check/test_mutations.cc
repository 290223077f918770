/**
 * @file
 * Mutation tests for the coherence sanitizer: deliberately break one
 * protocol transition via the test-only fault-injection params and
 * assert the checker names the precise invariant. These are the
 * checker's own tests-of-the-tests — a sanitizer that cannot catch a
 * planted bug is worse than none.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "check/protocol_checker.hh"
#include "tests/helpers.hh"

namespace tt
{
namespace
{

using test::DirRig;
using test::StacheRig;

bool
reported(const ProtocolChecker& chk, const char* invariant)
{
    const auto& vs = chk.violations();
    return std::any_of(vs.begin(), vs.end(), [&](const auto& v) {
        return v.invariant == invariant;
    });
}

/**
 * Break Stache's downgrade path: the owner acknowledges a kDowngrade
 * (returns the data) but keeps its ReadWrite tag. The directory then
 * believes the block is Shared while a writable copy survives —
 * exactly what "swmr" and "dir-agreement" exist to catch.
 */
TEST(CheckMutations, StacheSkippedDowngradeTripsSwmr)
{
    StacheParams sp;
    sp.faultSkipDowngrade = true;
    StacheRig rig(2, {}, {}, sp);

    ProtocolChecker chk(*rig.machine);
    chk.attachTyphoon(*rig.mem, *rig.stache);
    const auto rec = test::checkedRecorder(rig, chk);

    Addr a = rig.stache->shmalloc(4096, /*home=*/0);
    rig.run([&](Cpu& cpu) -> Task<void> {
        if (cpu.id() == 1)
            co_await cpu.write<int>(a, 42); // node 1 takes exclusive
        co_await rig.machine->barrier().wait(cpu);
        if (cpu.id() == 0)
            co_await cpu.read<int>(a); // home read => downgrade owner
    });
    chk.finalize();

    ASSERT_FALSE(chk.violations().empty())
        << "planted downgrade bug went undetected";
    EXPECT_TRUE(reported(chk, "swmr")) << chk.report();
    EXPECT_TRUE(reported(chk, "dir-agreement")) << chk.report();
    // The report is self-contained: names the invariant and shows the
    // per-block event trace.
    EXPECT_NE(chk.report().find("invariant=swmr"), std::string::npos);
    EXPECT_NE(chk.report().find("trace for block"), std::string::npos);
}

/** The same run with the fault off must be silent. */
TEST(CheckMutations, StacheHealthyDowngradeIsClean)
{
    StacheRig rig(2);
    ProtocolChecker chk(*rig.machine);
    chk.attachTyphoon(*rig.mem, *rig.stache);
    const auto rec = test::checkedRecorder(rig, chk);

    Addr a = rig.stache->shmalloc(4096, 0);
    rig.run([&](Cpu& cpu) -> Task<void> {
        if (cpu.id() == 1)
            co_await cpu.write<int>(a, 42);
        co_await rig.machine->barrier().wait(cpu);
        if (cpu.id() == 0)
            co_await cpu.read<int>(a);
    });
    chk.finalize();
    EXPECT_TRUE(chk.violations().empty()) << chk.report();
    EXPECT_GT(chk.eventsChecked(), 0u);
}

/**
 * Break DirNNB's invalidation-ack path: a sharer acks kInv without
 * dropping its line. After the home's write upgrade completes, a
 * stale readable line coexists with the writer.
 */
TEST(CheckMutations, DirnnbSkippedInvalidateTripsAgreement)
{
    DirParams dp;
    dp.faultSkipInvalidate = true;
    DirRig rig(2, {}, dp);

    ProtocolChecker chk(*rig.machine);
    chk.attachDirnnb(*rig.mem);
    const auto rec = test::checkedRecorder(rig, chk);

    Addr a = rig.mem->shmalloc(4096, /*home=*/0);
    rig.run([&](Cpu& cpu) -> Task<void> {
        if (cpu.id() == 1)
            co_await cpu.read<int>(a); // node 1 becomes a sharer
        co_await rig.machine->barrier().wait(cpu);
        if (cpu.id() == 0)
            co_await cpu.write<int>(a, 7); // home upgrade invalidates
    });
    chk.finalize();

    ASSERT_FALSE(chk.violations().empty())
        << "planted invalidation bug went undetected";
    EXPECT_TRUE(reported(chk, "dir-agreement")) << chk.report();
    EXPECT_NE(chk.report().find("invariant="), std::string::npos);
}

/** The same run with the fault off must be silent. */
TEST(CheckMutations, DirnnbHealthyInvalidateIsClean)
{
    DirRig rig(2);
    ProtocolChecker chk(*rig.machine);
    chk.attachDirnnb(*rig.mem);
    const auto rec = test::checkedRecorder(rig, chk);

    Addr a = rig.mem->shmalloc(4096, 0);
    rig.run([&](Cpu& cpu) -> Task<void> {
        if (cpu.id() == 1)
            co_await cpu.read<int>(a);
        co_await rig.machine->barrier().wait(cpu);
        if (cpu.id() == 0)
            co_await cpu.write<int>(a, 7);
    });
    chk.finalize();
    EXPECT_TRUE(chk.violations().empty()) << chk.report();
    EXPECT_GT(chk.eventsChecked(), 0u);
}

} // namespace
} // namespace tt
