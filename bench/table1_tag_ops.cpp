/**
 * @file
 * Table 1: the nine operations on tagged memory blocks, with their
 * simulated Typhoon costs — plus the section 6 miss-path audit ("the
 * NP executes only 14 instructions to request a missing block, 30
 * instructions for the remote node to respond with the data, and 20
 * instructions when the data arrives"), measured on real Stache
 * handler activations (the HandlerDone records of the flight
 * recorder).
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "stache/stache.hh"
#include "tests/helpers.hh"

using namespace tt;

namespace
{

/** Measure the charged cost of each Table 1 primitive. */
void
printTable1()
{
    test::StacheRig rig(2);
    Addr a = rig.stache->shmalloc(4096, 0);

    NpCtx ctx(*rig.mem, 0, 0, /*setup=*/false);
    auto cost = [&](auto&& fn) {
        const Tick before = ctx.charged();
        fn();
        return ctx.charged() - before;
    };

    std::uint8_t buf[32] = {};
    const Tick tReadTag = cost([&] { ctx.readTag(a); });
    const Tick tSetRW = cost([&] { ctx.setRW(a); });
    const Tick tSetRO = cost([&] { ctx.setRO(a); });
    const Tick tInval = cost([&] { ctx.invalidate(a); });
    const Tick tForceR = cost([&] { ctx.forceRead(a, buf, 32); });
    const Tick tForceW = cost([&] { ctx.forceWrite(a, buf, 32); });
    ctx.setRW(a);

    std::printf("Table 1: operations on tagged memory blocks "
                "(simulated Typhoon cost, NP cycles)\n\n");
    std::printf("  %-12s %-52s %s\n", "operation", "description",
                "cost");
    std::printf("  %-12s %-52s %s\n", "read", //
                "load with tag check (hit: +0; local miss: +29; fault:"
                " handler path)",
                "-");
    std::printf("  %-12s %-52s %s\n", "write",
                "store with tag check (same charging as read)", "-");
    std::printf("  %-12s %-52s %llu\n", "force-read",
                "load without tag check (32B via BXB)",
                (unsigned long long)tForceR);
    std::printf("  %-12s %-52s %llu\n", "force-write",
                "store without tag check (32B via BXB)",
                (unsigned long long)tForceW);
    std::printf("  %-12s %-52s %llu\n", "read-tag",
                "return value of tag (RTLB memory-mapped)",
                (unsigned long long)tReadTag);
    std::printf("  %-12s %-52s %llu\n", "set-RW",
                "set tag to ReadWrite", (unsigned long long)tSetRW);
    std::printf("  %-12s %-52s %llu\n", "set-RO",
                "set tag to ReadOnly (+CPU copy downgrade)",
                (unsigned long long)tSetRO);
    std::printf("  %-12s %-52s %llu\n", "invalidate",
                "set tag Invalid + invalidate local CPU copies",
                (unsigned long long)tInval);
    std::printf("  %-12s %-52s %llu\n", "resume",
                "resume suspended thread (unmask bus request)",
                (unsigned long long)rig.tp.resumeCost);
}

/** The 14/30/20 miss-path audit on live Stache handlers. */
void
printMissPathAudit()
{
    const test::MissPathAudit audit = test::runMissPathAudit();
    std::printf("\nMiss-path NP instruction audit (paper section 6: "
                "14 request / 30 respond / 20 arrival)\n\n");
    std::printf("  %-34s %6.1f cycles (paper: 14 instructions)\n",
                "request handler (BAF -> GetRO)", audit.baf.mean());
    std::printf("  %-34s %6.1f cycles (paper: 30 instructions)\n",
                "home handler (GetRO -> DataRO)", audit.getRO.mean());
    std::printf("  %-34s %6.1f cycles (paper: 20 instructions)\n",
                "arrival handler (DataRO -> resume)",
                audit.dataRO.mean());
}

} // namespace

int
main()
{
    printTable1();
    printMissPathAudit();
    return 0;
}
