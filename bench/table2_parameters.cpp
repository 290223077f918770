/**
 * @file
 * Table 2: the simulation parameters of both targets — printed from
 * the live configuration, then *validated*: each headline latency is
 * re-measured on the simulated machine (local miss, TLB miss, remote
 * miss composition, network latency, barrier) and compared against
 * the configured value.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_common.hh"
#include "tests/helpers.hh"

using namespace tt;

namespace
{

void
validate()
{
    std::printf("\nMeasured validation (simulated):\n");

    // Local miss and TLB miss on DirNNB.
    {
        test::DirRig rig(2);
        Addr a = rig.mem->shmalloc(4096, 0);
        Tick first = 0, second = 0;
        rig.run([&](Cpu& cpu) -> Task<void> {
            if (cpu.id() != 0)
                co_return;
            Tick t0 = cpu.localTime();
            co_await cpu.read<int>(a);
            first = cpu.localTime() - t0; // 1 + TLB 25 + miss 29
            t0 = cpu.localTime();
            co_await cpu.read<int>(a + 32);
            second = cpu.localTime() - t0; // 1 + miss 29
        });
        std::printf("  %-44s %3llu cycles (expect 29+25+1)\n",
                    "cold local read (miss + TLB miss + 1 instr)",
                    (unsigned long long)first);
        std::printf("  %-44s %3llu cycles (expect 29+1)\n",
                    "warm-TLB local miss",
                    (unsigned long long)second);
    }

    // Remote clean read miss composition on DirNNB.
    {
        test::DirRig rig(2);
        Addr a = rig.mem->shmalloc(4096, 1);
        Tick remote = 0;
        rig.run([&](Cpu& cpu) -> Task<void> {
            if (cpu.id() != 0)
                co_return;
            const Tick t0 = cpu.localTime();
            co_await cpu.read<int>(a);
            remote = cpu.localTime() - t0;
        });
        std::printf("  %-44s %3llu cycles (expect 1+25+23+12+32+12+"
                    "34 = 139)\n",
                    "DirNNB remote clean read miss",
                    (unsigned long long)remote);
    }

    // The same miss on Typhoon/Stache (the +-30%% comparison point).
    {
        test::StacheRig rig(2);
        Addr a = rig.stache->shmalloc(4096, 0);
        Tick remote = 0;
        rig.run([&](Cpu& cpu) -> Task<void> {
            if (cpu.id() != 1)
                co_return;
            const Tick t0 = cpu.localTime();
            co_await cpu.read<int>(a);
            remote = cpu.localTime() - t0; // page fault + block fetch
            // Second block on the now-mapped page: the pure
            // block-fault path.
            const Tick t1 = cpu.localTime();
            co_await cpu.read<int>(a + 64);
            std::printf("  %-44s %3llu cycles\n",
                        "Typhoon/Stache remote block fetch (warm page)",
                        (unsigned long long)(cpu.localTime() - t1));
        });
        std::printf("  %-44s %3llu cycles (includes page fault)\n",
                    "Typhoon/Stache first touch of remote page",
                    (unsigned long long)remote);
    }

    // Barrier latency.
    {
        test::DirRig rig(4);
        Tick t = 0;
        rig.run([&](Cpu& cpu) -> Task<void> {
            co_await cpu.compute(100);
            co_await rig.machine->barrier().wait(cpu);
            t = cpu.localTime();
        });
        std::printf("  %-44s %3llu cycles after max arrival "
                    "(expect 11)\n",
                    "barrier release",
                    (unsigned long long)(t - 100));
    }
}

} // namespace

int
main()
{
    MachineConfig cfg;
    printTable2(std::cout, cfg);
    validate();
    return 0;
}
