/**
 * @file
 * Shared test scaffolding: machine assembly for each target system,
 * a function-body App adapter, and the section 6 miss-path audit.
 */

#ifndef TT_TESTS_HELPERS_HH
#define TT_TESTS_HELPERS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "dir/dir_mem_system.hh"
#include "net/network.hh"
#include "obs/recorder.hh"
#include "stache/stache.hh"
#include "typhoon/typhoon_mem_system.hh"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/lsan_interface.h>
#endif

namespace tt::test
{

/**
 * Marks allocations made while in scope as expected leaks. Tests that
 * assert on a panic unwinding out of Machine::run abandon suspended
 * coroutine frames by design; LeakSanitizer must not fail them.
 */
struct ExpectLeaksInScope
{
    ExpectLeaksInScope()
    {
#if defined(__SANITIZE_ADDRESS__)
        __lsan_disable();
#endif
    }
    ~ExpectLeaksInScope()
    {
#if defined(__SANITIZE_ADDRESS__)
        __lsan_enable();
#endif
    }
};

/** App whose per-CPU body is a std::function. */
class FnApp : public App
{
  public:
    using Body = std::function<Task<void>(Cpu&)>;
    explicit FnApp(Body b) : _b(std::move(b)) {}
    std::string name() const override { return "fn"; }
    Task<void> body(Cpu& cpu) override { return _b(cpu); }

  private:
    Body _b;
};

/** A machine wired to a DirNNB memory system. */
struct DirRig
{
    CoreParams cp;
    DirParams dp;
    std::unique_ptr<Machine> machine;
    std::unique_ptr<Network> net;
    std::unique_ptr<DirMemSystem> mem;

    explicit DirRig(int nodes, CoreParams base = {}, DirParams dparams = {})
    {
        cp = base;
        cp.nodes = nodes;
        dp = dparams;
        machine = std::make_unique<Machine>(cp);
        net = std::make_unique<Network>(machine->eq(), nodes,
                                        NetworkParams{}, machine->stats());
        mem = std::make_unique<DirMemSystem>(*machine, *net, dp);
        machine->setMemSystem(mem.get());
    }

    RunResult
    run(FnApp::Body body)
    {
        FnApp app(std::move(body));
        return machine->run(app);
    }
};

/** A machine wired to Typhoon running the Stache protocol. */
struct StacheRig
{
    CoreParams cp;
    TyphoonParams tp;
    StacheParams sp;
    std::unique_ptr<Machine> machine;
    std::unique_ptr<Network> net;
    std::unique_ptr<TyphoonMemSystem> mem;
    std::unique_ptr<Stache> stache;

    explicit StacheRig(int nodes, CoreParams base = {},
                       TyphoonParams tparams = {},
                       StacheParams sparams = {})
    {
        cp = base;
        cp.nodes = nodes;
        tp = tparams;
        sp = sparams;
        machine = std::make_unique<Machine>(cp);
        net = std::make_unique<Network>(machine->eq(), nodes,
                                        NetworkParams{}, machine->stats());
        mem = std::make_unique<TyphoonMemSystem>(*machine, *net, tp);
        stache = std::make_unique<Stache>(*machine, *mem, sp);
        machine->setMemSystem(mem.get());
    }

    RunResult
    run(FnApp::Body body)
    {
        FnApp app(std::move(body));
        return machine->run(app);
    }
};

/**
 * A flight recorder feeding @p chk, attached to @p rig's network and
 * memory system as buildTarget wires a checked run. Keep it alive for
 * as long as the rig runs.
 */
template <typename Rig>
std::unique_ptr<FlightRecorder>
checkedRecorder(Rig& rig, CheckHooks& chk)
{
    auto rec = std::make_unique<FlightRecorder>(rig.cp.nodes);
    rec->setChecker(&chk);
    rig.net->setRecorder(rec.get());
    rig.mem->setRecorder(rec.get());
    return rec;
}

/** Activation count and summed NP charge of one handler. */
struct NpCharge
{
    std::uint64_t activations = 0;
    Tick cycles = 0;

    double
    mean() const
    {
        return activations ? static_cast<double>(cycles) /
                                 static_cast<double>(activations)
                           : 0.0;
    }
};

/**
 * Paper section 6's miss-path audit ("the NP executes only 14
 * instructions to request a missing block, 30 instructions for the
 * remote node to respond with the data, and 20 instructions when the
 * data arrives") on live Stache handlers: node 1 read-faults on 504
 * blocks of warm pages homed at node 0, and the HandlerDone records
 * of the measured run are summed per handler.
 */
struct MissPathAudit
{
    NpCharge baf;    ///< node 1: block-access fault -> GetRO request
    NpCharge getRO;  ///< node 0: home GetRO -> DataRO reply
    NpCharge dataRO; ///< node 1: DataRO arrival -> resume
    NpCharge other;  ///< every other activation (none expected)
};

inline MissPathAudit
runMissPathAudit()
{
    StacheRig rig(2);
    const Addr a = rig.stache->shmalloc(256 * 4096, 0);

    // Warm-up: map the pages and warm the NP TLBs / D-cache (the
    // paper's instruction counts are warm fast-path numbers). The
    // recorder attaches afterwards, so only the fresh stream of block
    // faults on the warm pages is summed.
    FnApp warm([&](Cpu& cpu) -> Task<void> {
        if (cpu.id() != 1)
            co_return;
        for (int i = 0; i < 8; ++i)
            co_await cpu.read<int>(a + i * 4096);
    });
    rig.machine->run(warm);

    FlightRecorder rec(2, 1u << 13);
    rig.mem->setRecorder(&rec);
    FnApp app([&](Cpu& cpu) -> Task<void> {
        if (cpu.id() != 1)
            co_return;
        for (int blk = 1; blk < 64; ++blk)
            for (int i = 0; i < 8; ++i)
                co_await cpu.read<int>(a + i * 4096 + blk * 32);
    });
    rig.machine->run(app);
    rig.mem->setRecorder(nullptr);

    MissPathAudit audit;
    std::uint64_t kept = 0;
    for (NodeId n = 0; n < rec.nodes(); ++n) {
        const std::vector<TraceRecord> ring = rec.ringOf(n);
        kept += ring.size();
        for (const TraceRecord& r : ring) {
            if (r.kind != RecKind::HandlerDone)
                continue;
            const auto act = static_cast<ActKind>(r.sub);
            NpCharge* c = &audit.other;
            if (act == ActKind::Baf && n == 1)
                c = &audit.baf;
            else if (act == ActKind::Msg && n == 0 &&
                     r.addr == Stache::kGetRO)
                c = &audit.getRO;
            else if (act == ActKind::Msg && n == 1 &&
                     r.addr == Stache::kDataRO)
                c = &audit.dataRO;
            ++c->activations;
            c->cycles += r.t2;
        }
    }
    tt_assert(kept == rec.recordCount(),
              "miss-path audit overflowed the recorder rings");
    return audit;
}

} // namespace tt::test

#endif // TT_TESTS_HELPERS_HH
