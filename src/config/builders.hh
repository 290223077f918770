/**
 * @file
 * Machine assembly: one call builds a complete target system —
 * nodes, network, memory system, and protocol — for each of the
 * paper's configurations: the DirNNB baseline, Typhoon/Stache, and
 * Typhoon with the custom EM3D update protocol.
 */

#ifndef TT_CONFIG_BUILDERS_HH
#define TT_CONFIG_BUILDERS_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "check/protocol_checker.hh"
#include "core/machine.hh"
#include "core/transport.hh"
#include "obs/recorder.hh"
#include "custom/em3d_protocol.hh"
#include "custom/migratory.hh"
#include "dir/dir_mem_system.hh"
#include "net/fault_model.hh"
#include "net/network.hh"
#include "obs/telemetry.hh"
#include "recovery/checkpoint.hh"
#include "recovery/coordinator.hh"
#include "sim/watchdog.hh"
#include "stache/stache.hh"
#include "typhoon/typhoon_mem_system.hh"

namespace tt
{

/**
 * Coherence-sanitizer configuration (ttsim --check / --perturb).
 * When enabled, the builders construct a ProtocolChecker, attach it
 * to every hook point of the assembled machine, and hand ownership
 * to the TargetMachine. Perturbation additionally randomizes
 * same-tick event order (the EventQueue must already be in
 * ReferenceHeap mode — see EventQueue::setPerturb).
 */
struct CheckConfig
{
    bool enable = false;
    /// Fast = Valgrind-style shadow engine (default); Paranoid = the
    /// byte-granular reference oracle (--check=paranoid).
    ProtocolChecker::Mode mode = ProtocolChecker::Mode::Fast;
    bool perturb = false;
    std::uint64_t perturbSeed = 0;
};

/**
 * Flight-recorder configuration (ttsim --trace / DESIGN.md §9).
 * A recorder is attached when tracing or analysis is requested, and
 * also whenever the sanitizer is on (so checker violations and panics
 * come with the crash-ring tail); everything else is opt-in.
 */
struct ObsConfig
{
    bool enable = false;        ///< attach a FlightRecorder at all
    std::size_t ringCapacity = 256; ///< crash-ring records per node
    std::string traceFile;      ///< Perfetto JSON path ("" = no trace)
    Tick samplePeriod = 0;      ///< counter-snapshot period (0 = off)
    bool analyze = false;       ///< fold the online sharing analyzer
    /// fold the coherence-transaction tracer (--trace-critical,
    /// DESIGN.md §14); implies the sharing analyzer, whose per-block
    /// classification the critical-path report joins against
    bool txn = false;
    /// simulator self-telemetry (--telemetry, DESIGN.md §16):
    /// per-subsystem memory accounting
    bool telemetry = false;
};

/**
 * Progress-watchdog configuration (ttsim --horizon / DESIGN.md §10).
 * Armed only when fault injection is active (a lossless fabric cannot
 * stall an operation, and arming nothing keeps fault-off runs
 * bit-identical). The horizon default comfortably exceeds the
 * transport's worst-case retry window (~45k ticks at the default
 * rto/rtoMax/maxRetries), so only a genuinely wedged run trips.
 */
struct WatchdogConfig
{
    bool enable = true;
    Tick horizon = 100'000; ///< max age of an open operation (ticks)
};

/**
 * Checkpoint/restart configuration (ttsim --checkpoint, DESIGN.md
 * §15). Fault-free runs only; the fingerprint pins the snapshot file
 * to one exact configuration so a restore under a different machine
 * is refused instead of silently diverging.
 */
struct RecoveryConfig
{
    std::uint64_t checkpointEpoch = 0; ///< 0 = no checkpoint
    std::string checkpointFile = "ttsim.ckpt";
    std::uint64_t fingerprint = 0;     ///< configFingerprint(key)
};

/** Everything Table 2 configures, in one bag. */
struct MachineConfig
{
    CoreParams core;
    NetworkParams net;
    DirParams dir;
    TyphoonParams typhoon;
    StacheParams stache;
    CheckConfig check;
    ObsConfig obs;
    FaultParams faults;       ///< unreliable fabric (off by default)
    ReliableParams reliable;  ///< user-level reliable delivery
    WatchdogConfig watchdog;  ///< progress watchdog (faults only)
    RecoveryConfig recovery;  ///< checkpoint/restart (off by default)

    /**
     * Every machine-geometry error in this configuration, one message
     * each; empty when the machine can be built. Node counts need not
     * be powers of two; block and cache sizes must be.
     */
    std::vector<std::string> validate() const;
};

/**
 * tt_fatal (a user error) listing every MachineConfig::validate()
 * error at once; every builder calls it first.
 */
void requireValid(const MachineConfig& cfg);

/** Print the active configuration in the shape of Table 2. */
void printTable2(std::ostream& os, const MachineConfig& cfg);

/** An assembled target machine (move-only). */
struct TargetMachine
{
    std::unique_ptr<Machine> machine;
    std::unique_ptr<Network> network;

    // Exactly one of the following is populated.
    std::unique_ptr<DirMemSystem> dir;
    std::unique_ptr<TyphoonMemSystem> typhoon;
    std::unique_ptr<Stache> protocol; ///< Stache or Em3dUpdateProtocol

    Em3dUpdateProtocol* em3d = nullptr; ///< set for the update target
    MigratoryProtocol* migratory = nullptr; ///< set for that target

    /** Set iff MachineConfig::check.enable was true at build time. */
    std::unique_ptr<ProtocolChecker> checker;

    /** Set iff obs.enable, check.enable, or faults were on at build. */
    std::unique_ptr<FlightRecorder> obs;

    /** Set iff MachineConfig::faults.any() was true at build time. */
    std::unique_ptr<SeededFaultModel> faults;

    /** Set iff faults were on and reliable.enable was true. */
    std::unique_ptr<ReliableTransport> transport;

    /** Set iff faults were on and watchdog.enable was true. */
    std::unique_ptr<Watchdog> watchdog;

    /** Set iff the fault spec scheduled crash-stop failures. */
    std::unique_ptr<RecoveryCoordinator> recovery;

    /** Set iff recovery.checkpointEpoch was > 0 at build time. */
    std::unique_ptr<CheckpointManager> checkpoint;

    /** Set iff MachineConfig::obs.telemetry was true at build time. */
    std::unique_ptr<Telemetry> telemetry;

    Machine& m() { return *machine; }
    RunResult run(App& app) { return machine->run(app); }
    RunResult run(App& app, const Machine::RestartPlan& plan)
    {
        return machine->run(app, &plan);
    }
};

/** The all-hardware DirNNB baseline. */
TargetMachine buildDirNNB(const MachineConfig& cfg = {});

/** Typhoon running transparent shared memory via Stache. */
TargetMachine buildTyphoonStache(const MachineConfig& cfg = {});

/** Typhoon running Stache plus the custom EM3D update protocol. */
TargetMachine buildTyphoonEm3dUpdate(const MachineConfig& cfg = {});

/** Typhoon running the migratory-sharing custom protocol. */
TargetMachine buildTyphoonMigratory(const MachineConfig& cfg = {});

} // namespace tt

#endif // TT_CONFIG_BUILDERS_HH
