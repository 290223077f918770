#include "config/builders.hh"

#include <algorithm>
#include <iomanip>
#include <iostream>

#include "mem/addr.hh"
#include "sim/logging.hh"

namespace tt
{

std::vector<std::string>
MachineConfig::validate() const
{
    std::vector<std::string> errs;
    const CoreParams& c = core;
    if (c.nodes < 1)
        errs.push_back("nodes must be at least 1, got " +
                       std::to_string(c.nodes));
    const bool blockOk = isPow2(c.blockSize) && c.blockSize >= 8;
    if (!blockOk)
        errs.push_back("block size must be a power of two of at least "
                       "8 bytes (one double), got " +
                       std::to_string(c.blockSize));
    if (blockOk && c.blockSize > c.pageSize)
        errs.push_back("block size " + std::to_string(c.blockSize) +
                       " exceeds the page size " +
                       std::to_string(c.pageSize));
    if (!isPow2(c.cacheSize))
        errs.push_back("cache size must be a power of two, got " +
                       std::to_string(c.cacheSize) + " bytes");
    else if (blockOk &&
             c.cacheSize < std::uint64_t{c.blockSize} * c.cacheAssoc)
        errs.push_back("a " + std::to_string(c.cacheSize) +
                       "-byte cache holds no " +
                       std::to_string(c.cacheAssoc) + "-way set of " +
                       std::to_string(c.blockSize) + "-byte blocks");
    return errs;
}

void
requireValid(const MachineConfig& cfg)
{
    std::string msg;
    for (const std::string& e : cfg.validate())
        msg += (msg.empty() ? "" : "; ") + e;
    if (!msg.empty())
        tt_fatal("invalid machine: ", msg);
}

namespace
{

/**
 * Wire the sanitizer into a freshly built Typhoon/Stache-family
 * target: one checker observes the memory system, the protocol, and
 * the network. Perturbation of same-tick order is applied to the
 * machine's event queue here so callers only have to pick the queue
 * mode (ReferenceHeap) before building.
 */
void
attachCheckerTyphoon(TargetMachine& t, const CheckConfig& cc)
{
    if (!cc.enable)
        return;
    t.checker = std::make_unique<ProtocolChecker>(*t.machine, cc.mode);
    t.checker->attachTyphoon(*t.typhoon, *t.protocol);
    t.typhoon->setChecker(t.checker.get());
    t.protocol->setChecker(t.checker.get());
    t.network->setChecker(t.checker.get());
    if (cc.perturb) {
        t.checker->setSeed(cc.perturbSeed);
        t.machine->eq().setPerturb(cc.perturbSeed);
    }
}

/**
 * Attach a FlightRecorder to an assembled target. Rings are kept
 * whenever the recorder exists (that is the crash flight recorder,
 * wanted under --check even without --trace); the exporter, sampler,
 * sharing analyzer and transaction tracer are each opt-in via
 * ObsConfig.
 */
void
attachObserver(TargetMachine& t, const MachineConfig& cfg)
{
    // A recorder also rides along whenever faults are injected, so a
    // watchdog trip or fault-induced panic comes with the crash-ring
    // tail (DESIGN.md §10).
    const ObsConfig& oc = cfg.obs;
    if (!oc.enable && !oc.analyze && !oc.txn && !cfg.check.enable &&
        !cfg.faults.any()) {
        return;
    }
    t.obs = std::make_unique<FlightRecorder>(cfg.core.nodes,
                                             oc.ringCapacity);
    t.network->setRecorder(t.obs.get());
    if (t.typhoon)
        t.typhoon->setRecorder(t.obs.get());
    if (t.dir)
        t.dir->setRecorder(t.obs.get());
    if (t.protocol)
        t.protocol->describeHandlers(*t.obs);
    if (!oc.traceFile.empty())
        t.obs->openTrace(oc.traceFile);
    if (oc.samplePeriod > 0)
        t.obs->enableSampler(t.machine->stats(), oc.samplePeriod);
    if (oc.analyze || oc.txn) {
        // --trace-critical implies the sharing analyzer: the
        // critical-path report joins per-transaction latency against
        // its per-block pattern classification (DESIGN.md §14).
        t.obs->enableSharing(cfg.core.blockSize, cfg.core.pageSize);
    }
    if (oc.txn)
        t.obs->enableTxn(t.machine->stats(), cfg.core.blockSize,
                         cfg.core.pageSize);
    t.obs->installCrashDump();
}

/**
 * Arm the robustness stack (DESIGN.md §10) on an assembled target:
 * the seeded fault injector on the network, the reliable transport
 * above it (unless explicitly disabled — the negative control), and
 * the progress watchdog probing the memory system and transport. All
 * three follow the null-pointer opt-in pattern, so a fault-free build
 * is untouched. Must run after attachObserver (the trip dump needs
 * the recorder). The lambdas capture raw pointers into unique_ptr
 * targets, which stay valid across the TargetMachine move.
 */
void
attachRobustness(TargetMachine& t, const MachineConfig& cfg)
{
    if (!cfg.faults.any())
        return;
    StatSet& stats = t.machine->stats();
    t.faults = std::make_unique<SeededFaultModel>(cfg.core.nodes,
                                                  cfg.faults, stats);
    t.network->setFaults(t.faults.get());
    if (cfg.reliable.enable) {
        t.transport = std::make_unique<ReliableTransport>(
            t.machine->eq(), *t.network, cfg.reliable, stats);
        t.network->setTransport(t.transport.get());
    }
    MemorySystem* ms = t.typhoon
                           ? static_cast<MemorySystem*>(t.typhoon.get())
                           : static_cast<MemorySystem*>(t.dir.get());
    if (!cfg.faults.crashes.empty()) {
        // Crash-stop failures need the reliable transport: survivors
        // observe a crash through its dead-link declaration, and the
        // recovery quiesce/ack handshake rides the retried path.
        tt_assert(t.transport,
                  "crash faults require the reliable transport "
                  "(drop --no-reliable)");
        t.recovery = std::make_unique<RecoveryCoordinator>(
            *t.machine, *t.network, *ms, *t.transport, t.faults.get(),
            t.checker.get(), cfg.faults.crashes);
        if (t.typhoon)
            t.recovery->attachTyphoon(*t.typhoon);
        else
            t.recovery->attachDirnnb(*t.dir);
        t.recovery->arm();
    }
    if (cfg.watchdog.enable) {
        ReliableTransport* tr = t.transport.get();
        FlightRecorder* obs = t.obs.get();
        RecoveryCoordinator* rec = t.recovery.get();
        Counter& trips = stats.counter("obs.watchdog.trips");
        t.watchdog = std::make_unique<Watchdog>(
            t.machine->eq(), cfg.watchdog.horizon,
            [ms, tr] {
                Tick oldest = ms->oldestPendingSince();
                if (tr)
                    oldest =
                        std::min(oldest, tr->oldestUnackedSince());
                return oldest;
            },
            [obs, tr, rec, &trips](Tick oldest, Tick now) {
                trips.inc();
                std::cerr << "watchdog: operation open since tick "
                          << oldest << ", now " << now << "\n";
                if (tr) {
                    // Name the stalled work: the oldest unacked
                    // transport entries with their transaction ids,
                    // so a hang report joins directly against the
                    // --trace-critical transaction log.
                    std::cerr << "watchdog: oldest unacked messages:\n";
                    tr->describeOldest(std::cerr);
                }
                if (rec)
                    rec->describeRecovery(std::cerr);
                std::cerr << "watchdog: flight-recorder tail:\n";
                if (obs)
                    obs->dumpTail(std::cerr);
            });
        t.watchdog->arm();
        if (t.recovery)
            t.recovery->setWatchdog(t.watchdog.get());
    }
}

/**
 * Arm the checkpoint manager (ttsim --checkpoint, DESIGN.md §15).
 * Fault-free runs only — it shares the barrier epoch-hook slot with
 * the recovery coordinator, and a checkpoint of a faulted run would
 * bake transient fault state into the file. Must run after
 * attachRobustness so the exclusivity assert sees the coordinator.
 */
void
attachCheckpoint(TargetMachine& t, const MachineConfig& cfg)
{
    if (cfg.recovery.checkpointEpoch == 0)
        return;
    tt_assert(!cfg.faults.any(),
              "--checkpoint requires a fault-free run");
    tt_assert(!t.recovery, "checkpoint and crash recovery both want "
                           "the barrier epoch hook");
    MemorySystem* ms = t.typhoon
                           ? static_cast<MemorySystem*>(t.typhoon.get())
                           : static_cast<MemorySystem*>(t.dir.get());
    t.checkpoint = std::make_unique<CheckpointManager>(
        *t.machine, *t.network, *ms, t.checker.get(),
        t.transport.get(), cfg.recovery.checkpointEpoch,
        cfg.recovery.checkpointFile, cfg.recovery.fingerprint);
    t.checkpoint->arm();
}

/**
 * Attach the self-telemetry subsystem (ttsim --telemetry, DESIGN.md
 * §16): one Telemetry owns the named memory probes, and the event
 * queue's counter polls them every HostTimer::kMemSample events.
 * Must run LAST — it probes whichever optional subsystems the earlier
 * attach steps built (checker, transport, recorder).
 */
void
attachTelemetry(TargetMachine& t, const MachineConfig& cfg)
{
    if (!cfg.obs.telemetry)
        return;
    t.telemetry = std::make_unique<Telemetry>(t.machine->stats(),
                                              cfg.core.nodes);
    t.machine->eq().setTelemetry(&t.telemetry->timer());

    // Memory probes: raw pointers into unique_ptr targets stay valid
    // across the TargetMachine move (same pattern as the robustness
    // lambdas above).
    EventQueue* eq = &t.machine->eq();
    t.telemetry->addMemProbe(
        "event_queue", [eq] { return eq->footprintBytes(); });
    Network* net = t.network.get();
    t.telemetry->addMemProbe(
        "network", [net] { return net->footprintBytes(); });
    if (t.typhoon) {
        TyphoonMemSystem* ms = t.typhoon.get();
        t.telemetry->addMemProbe(
            "typhoon", [ms] { return ms->footprintBytes(); });
    }
    if (t.protocol) {
        Stache* p = t.protocol.get();
        t.telemetry->addMemProbe(
            "protocol", [p] { return p->footprintBytes(); });
    }
    if (t.dir) {
        DirMemSystem* ms = t.dir.get();
        t.telemetry->addMemProbe(
            "dirnnb", [ms] { return ms->footprintBytes(); });
    }
    if (t.checker) {
        ProtocolChecker* c = t.checker.get();
        t.telemetry->addMemProbe(
            "checker", [c] { return c->footprintBytes(); });
    }
    if (t.transport) {
        ReliableTransport* tr = t.transport.get();
        t.telemetry->addMemProbe(
            "transport", [tr] { return tr->footprintBytes(); });
    }
    if (t.obs) {
        FlightRecorder* r = t.obs.get();
        t.telemetry->addMemProbe(
            "recorder", [r] { return r->footprintBytes(); });
    }
    t.telemetry->registerStats();
}

} // namespace

TargetMachine
buildDirNNB(const MachineConfig& cfg)
{
    requireValid(cfg);
    TargetMachine t;
    t.machine = std::make_unique<Machine>(cfg.core);
    t.network = std::make_unique<Network>(
        t.machine->eq(), cfg.core.nodes, cfg.net, t.machine->stats());
    t.dir = std::make_unique<DirMemSystem>(*t.machine, *t.network,
                                           cfg.dir);
    t.machine->setMemSystem(t.dir.get());
    if (cfg.check.enable) {
        t.checker = std::make_unique<ProtocolChecker>(*t.machine,
                                                      cfg.check.mode);
        t.checker->attachDirnnb(*t.dir);
        t.dir->setChecker(t.checker.get());
        t.network->setChecker(t.checker.get());
        if (cfg.check.perturb) {
            t.checker->setSeed(cfg.check.perturbSeed);
            t.machine->eq().setPerturb(cfg.check.perturbSeed);
        }
    }
    attachObserver(t, cfg);
    attachRobustness(t, cfg);
    attachCheckpoint(t, cfg);
    attachTelemetry(t, cfg);
    return t;
}

TargetMachine
buildTyphoonStache(const MachineConfig& cfg)
{
    requireValid(cfg);
    TargetMachine t;
    t.machine = std::make_unique<Machine>(cfg.core);
    t.network = std::make_unique<Network>(
        t.machine->eq(), cfg.core.nodes, cfg.net, t.machine->stats());
    t.typhoon = std::make_unique<TyphoonMemSystem>(
        *t.machine, *t.network, cfg.typhoon);
    t.protocol =
        std::make_unique<Stache>(*t.machine, *t.typhoon, cfg.stache);
    t.machine->setMemSystem(t.typhoon.get());
    attachCheckerTyphoon(t, cfg.check);
    attachObserver(t, cfg);
    attachRobustness(t, cfg);
    attachCheckpoint(t, cfg);
    attachTelemetry(t, cfg);
    return t;
}

TargetMachine
buildTyphoonEm3dUpdate(const MachineConfig& cfg)
{
    requireValid(cfg);
    TargetMachine t;
    t.machine = std::make_unique<Machine>(cfg.core);
    t.network = std::make_unique<Network>(
        t.machine->eq(), cfg.core.nodes, cfg.net, t.machine->stats());
    t.typhoon = std::make_unique<TyphoonMemSystem>(
        *t.machine, *t.network, cfg.typhoon);
    auto proto = std::make_unique<Em3dUpdateProtocol>(
        *t.machine, *t.typhoon, cfg.stache);
    t.em3d = proto.get();
    t.protocol = std::move(proto);
    t.machine->setMemSystem(t.typhoon.get());
    attachCheckerTyphoon(t, cfg.check);
    attachObserver(t, cfg);
    attachRobustness(t, cfg);
    attachCheckpoint(t, cfg);
    attachTelemetry(t, cfg);
    return t;
}

TargetMachine
buildTyphoonMigratory(const MachineConfig& cfg)
{
    requireValid(cfg);
    TargetMachine t;
    t.machine = std::make_unique<Machine>(cfg.core);
    t.network = std::make_unique<Network>(
        t.machine->eq(), cfg.core.nodes, cfg.net, t.machine->stats());
    t.typhoon = std::make_unique<TyphoonMemSystem>(
        *t.machine, *t.network, cfg.typhoon);
    auto proto = std::make_unique<MigratoryProtocol>(
        *t.machine, *t.typhoon, cfg.stache);
    t.migratory = proto.get();
    t.protocol = std::move(proto);
    t.machine->setMemSystem(t.typhoon.get());
    attachCheckerTyphoon(t, cfg.check);
    attachObserver(t, cfg);
    attachRobustness(t, cfg);
    attachCheckpoint(t, cfg);
    attachTelemetry(t, cfg);
    return t;
}

void
printTable2(std::ostream& os, const MachineConfig& cfg)
{
    auto row = [&](const char* name, auto value, const char* unit) {
        os << "  " << std::left << std::setw(34) << name << value
           << " " << unit << "\n";
    };
    os << "Table 2: simulation parameters\n";
    os << "Common\n";
    row("Nodes", cfg.core.nodes, "");
    row("CPU cache", cfg.core.cacheSize / 1024, "KB, 4-way, random");
    row("Block size", cfg.core.blockSize, "bytes");
    row("CPU TLB", cfg.core.tlbEntries, "ent., fully assoc., FIFO");
    row("Page size", cfg.core.pageSize, "bytes");
    row("Local cache miss", cfg.core.localMissLatency, "cycles");
    row("Local writeback", 0, "cycles (perfect write buffer)");
    row("TLB miss", cfg.core.tlbMissLatency, "cycles");
    row("Network latency", cfg.net.latency, "cycles");
    row("Barrier latency", cfg.core.barrierLatency, "cycles");
    os << "DirNNB only\n";
    row("Remote miss issue", cfg.dir.remoteMissIssue, "cycles");
    row("Remote miss finish", cfg.dir.remoteMissFinish, "cycles");
    row("Replacement (shared/excl)", cfg.dir.replaceShared, "");
    row("  .. exclusive", cfg.dir.replaceExclusive, "cycles");
    row("Remote invalidate", cfg.dir.invProcess, "cycles + repl");
    row("Directory op base", cfg.dir.dirOpBase, "cycles");
    row("  + block received", cfg.dir.dirBlockRecv, "cycles");
    row("  + per message sent", cfg.dir.dirPerMsg, "cycles");
    row("  + block sent", cfg.dir.dirBlockSend, "cycles");
    os << "Typhoon only\n";
    row("NP TLB / RTLB", cfg.typhoon.rtlbEntries,
        "ent., fully assoc., FIFO");
    row("(R)TLB miss", cfg.typhoon.npTlbMissLatency, "cycles");
    row("NP D-cache", cfg.typhoon.npDcacheSize / 1024, "KB, 2-way");
    row("NP dispatch", cfg.typhoon.dispatchCost, "cycles");
    row("BAF detect", cfg.typhoon.bafDetectCost, "cycles");
    row("Resume", cfg.typhoon.resumeCost, "cycles");
    row("Block transfer (BXB)", cfg.typhoon.blockXferCost,
        "cycles / 32B");
}

} // namespace tt
