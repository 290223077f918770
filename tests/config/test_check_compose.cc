/**
 * @file
 * Composition of --check with the rest of the configuration surface:
 * the checker-mode knob reaches the constructed ProtocolChecker.
 */

#include <gtest/gtest.h>

#include "config/builders.hh"

namespace tt
{
namespace
{

TEST(CheckCompose, ModeKnobReachesTheChecker)
{
    MachineConfig cfg;
    cfg.core.nodes = 2;
    cfg.check.enable = true;
    cfg.check.mode = ProtocolChecker::Mode::Paranoid;
    TargetMachine t = buildDirNNB(cfg);
    ASSERT_NE(t.checker, nullptr);
    EXPECT_EQ(t.checker->mode(), ProtocolChecker::Mode::Paranoid);

    cfg.check.mode = ProtocolChecker::Mode::Fast;
    TargetMachine t2 = buildTyphoonStache(cfg);
    ASSERT_NE(t2.checker, nullptr);
    EXPECT_EQ(t2.checker->mode(), ProtocolChecker::Mode::Fast);
}

} // namespace
} // namespace tt
