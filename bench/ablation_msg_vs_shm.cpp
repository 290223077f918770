/**
 * @file
 * Section 2.2's claim: "transferring bulk data via explicit messages
 * is more efficient than using shared memory." A neighbor exchange —
 * every node hands a buffer to its successor — three ways:
 *
 *  1. shared-memory pull on DirNNB (consumer reads producer's data);
 *  2. shared-memory pull on Typhoon/Stache;
 *  3. Tempest bulk transfer (producer pushes via the NP's transfer
 *     engine, consumer is notified by a completion handler).
 *
 * Tempest imposes no shared-memory overhead on the message-passing
 * version: no tags are consulted, no coherence traffic flows.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "tests/helpers.hh"

using namespace tt;
using namespace tt::bench;

namespace
{

constexpr HandlerId kDone = 0xA00;

/** Shared-memory pull version. */
Tick
runShared(bool stache, int nodes, std::uint32_t kb)
{
    MachineConfig cfg;
    cfg.core.nodes = nodes;
    auto t = stache ? buildTyphoonStache(cfg) : buildDirNNB(cfg);
    const std::size_t bytes = kb * 1024;
    std::vector<Addr> buf(nodes);
    for (int n = 0; n < nodes; ++n)
        buf[n] = t.m().memsys().shmalloc(bytes, n);

    test::FnApp app([&](Cpu& cpu) -> Task<void> {
        // Producer fills its buffer (local), barrier, consumer pulls
        // the predecessor's buffer.
        for (Addr a = 0; a < bytes; a += 8)
            co_await cpu.write<std::uint64_t>(buf[cpu.id()] + a,
                                              cpu.id() + a);
        co_await t.m().barrier().wait(cpu);
        const int prev = (cpu.id() + nodes - 1) % nodes;
        std::uint64_t sum = 0;
        for (Addr a = 0; a < bytes; a += 8)
            sum += co_await cpu.read<std::uint64_t>(buf[prev] + a);
        co_await t.m().barrier().wait(cpu);
    });
    return t.m().run(app).execTime;
}

/** Tempest message-passing version: bulk push + notification. */
Tick
runBulk(int nodes, std::uint32_t kb)
{
    MachineConfig cfg;
    cfg.core.nodes = nodes;
    auto t = buildTyphoonStache(cfg);
    const std::size_t bytes = kb * 1024;
    std::vector<Addr> src(nodes), dst(nodes);
    for (int n = 0; n < nodes; ++n) {
        src[n] = t.m().memsys().shmalloc(bytes, n);
        dst[n] = t.m().memsys().shmalloc(bytes, n);
    }
    std::vector<int> arrived(nodes, 0);
    for (NodeId n = 0; n < nodes; ++n) {
        t.typhoon->tempest(n).registerMsgHandler(
            kDone, [&arrived, n](TempestCtx& ctx, const Message&) {
                ctx.charge(2);
                arrived[n] = 1;
            });
    }

    test::FnApp app([&](Cpu& cpu) -> Task<void> {
        for (Addr a = 0; a < bytes; a += 8)
            co_await cpu.write<std::uint64_t>(src[cpu.id()] + a,
                                              cpu.id() + a);
        // Push to the successor's private landing buffer.
        const int next = (cpu.id() + 1) % cpu.params().nodes;
        t.typhoon->tempest(cpu.id())
            .setupCtx()
            .bulkTransfer(src[cpu.id()], next, dst[next],
                          static_cast<std::uint32_t>(bytes), kDone);
        // Consume locally once the completion handler fires.
        while (!arrived[cpu.id()])
            co_await cpu.compute(50); // poll (section 2.2: polling)
        std::uint64_t sum = 0;
        for (Addr a = 0; a < bytes; a += 8)
            sum += co_await cpu.read<std::uint64_t>(dst[cpu.id()] + a);
        co_await t.m().barrier().wait(cpu);
    });
    return t.m().run(app).execTime;
}

} // namespace

static int
runDriver()
{
    const int nodes = envInt("TT_NODES", 16);
    std::printf("Neighbor exchange: shared-memory pull vs Tempest "
                "bulk transfer (%d nodes)\n\n",
                nodes);
    std::printf("%-8s %14s %14s %14s %22s\n", "size", "DirNNB pull",
                "Stache pull", "bulk transfer", "bulk vs best pull");
    for (std::uint32_t kb : {4u, 16u, 64u}) {
        const Tick d = runShared(false, nodes, kb);
        const Tick s = runShared(true, nodes, kb);
        const Tick b = runBulk(nodes, kb);
        std::printf("%5u KB %14llu %14llu %14llu %21.2fx\n", kb,
                    (unsigned long long)d, (unsigned long long)s,
                    (unsigned long long)b,
                    double(std::min(d, s)) / double(b));
        std::fflush(stdout);
    }
    return 0;
}

int
main()
{
    return guardMain(runDriver);
}
