/**
 * @file
 * The benchmark's one timed path: builder -> App::setup ->
 * Machine::run -> result checks, for every simulation of every
 * workload.
 *
 * Layers are timed from outside the program, at its public seams:
 *
 *  - a forwarding App (TimedApp) stamps App::setup and App::finish;
 *  - a forwarding MemorySystem (SampledMemSystem), installed with
 *    Machine::setMemSystem, counts every access(), reads the clock
 *    every kSliceCalls-th call and, in traced runs, times 1 in
 *    kAccessSample calls with the TSC;
 *  - spans around the builder call, Machine::run, checker finalize,
 *    the analyzer/tracer summaries and the TargetMachine destructor.
 *
 * Untraced runs use the TimedApp stamps and the forwarder's clock
 * reads, which split run_s into slices: the same simulated work in
 * every repetition, so slices can be compared across repetitions.
 * Traced runs add the TSC samples and the span log; they must
 * reproduce the untraced cycles and checksums.
 */

#ifndef TTBENCH_HARNESS_HH
#define TTBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "apps/workloads.hh"
#include "config/builders.hh"

namespace ttbench
{

/** Host wall time in seconds since the first call (steady clock). */
double nowS();

/**
 * In-memory span log: name, start, end, parent span and simulation
 * id. Nothing is written until the caller asks, after the run.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char* name = "";
        double start = 0;
        double end = 0;
        int parent = -1;
        int sim = -1;
    };

    /** Open a span as a child of the innermost open one. */
    int open(const char* name, int sim);
    void close(int id);

    const std::vector<Span>& spans() const { return _spans; }

    /** A span's duration minus the time its direct children cover. */
    double selfTime(int id) const;

    void writeJson(std::ostream& os) const;

  private:
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** RAII span; a null log records nothing. */
class SpanScope
{
  public:
    SpanScope(SpanLog* log, const char* name, int sim)
        : _log(log), _id(log ? log->open(name, sim) : -1)
    {
    }
    ~SpanScope()
    {
        if (_log)
            _log->close(_id);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    SpanLog* _log;
    int _id;
};

/** Sampled access() timing collected by the memory-system forwarder. */
struct AccessSample
{
    std::uint64_t calls = 0;
    std::uint64_t inlineDone = 0;
    std::uint64_t sampled = 0;
    double sumTicks = 0;   ///< sampled TSC ticks, timer cost removed
    double sumSqTicks = 0;
    double nsPerTick = 0;  ///< TSC calibration over the simulation

    /** Extrapolated host seconds inside access(). */
    double seconds() const;
    /** One standard error of seconds() from sampling. */
    double stdErr() const;
};

/** One simulation: which system, which app input, which faults. */
struct SimSpec
{
    std::string system;            ///< dirnnb|stache|migratory|update
    std::string app;               ///< em3d|mp3d
    tt::DataSet dataset = tt::DataSet::Tiny;
    int scale = 1;
    std::uint64_t appSeed = 0;     ///< the app's Params.seed
    tt::MachineConfig cfg;         ///< faults/check/obs as configured
};

/** How one simulation is instrumented. */
struct RunOptions
{
    /// Non-null for a traced run: spans go here, and the run adds the
    /// memory-system forwarder and returns the full StatSet as JSON.
    SpanLog* spans = nullptr;
    bool telemetry = false;  ///< --telemetry memory probes
    int simId = 0;
};

/** Everything one simulation reports. */
struct SimResult
{
    std::string outcome = "ok"; ///< as CampaignRun::outcome
    std::string detail;
    tt::Tick cycles = 0;
    double checksum = 0;
    std::uint64_t events = 0;

    // Host seconds of the end-to-end metrics; traced runs time every
    // other seam with spans.
    double buildS = 0;      ///< builder call
    double setupS = 0;      ///< App::setup
    double runS = 0;        ///< first event -> checked results
    /// runS split at every kSliceCalls-th access() and at the end of
    /// Machine::run; the last slice is the checked-results tail.
    std::vector<double> slices;

    AccessSample access;                     ///< traced runs only
    std::map<std::string, double> counts;    ///< exact per-layer counts
    std::map<std::string, double> memPeakMb; ///< telemetry probes
    std::string statsJson;                   ///< traced runs only
};

/** Build, set up, run and check one simulation. Never throws. */
SimResult runSimulation(const SimSpec& spec, const RunOptions& opt);

/**
 * Host seconds in the builder plus App::setup for @p spec, without
 * running it: the set-up-only passes that steady setup_s.
 */
double setupSeconds(const SimSpec& spec);

/** The app one simulation runs, with its input seed applied. */
std::unique_ptr<tt::BenchApp> makeApp(const SimSpec& spec,
                                      tt::TargetMachine& target);

/** Build the target machine for a ttsim system name. */
tt::TargetMachine buildSystem(const std::string& system,
                              const tt::MachineConfig& cfg);

/** The fault mix of the fault-campaign workload. */
extern const char* const kCampaignFaults;

/** Systems of the fault-campaign workload, in runCampaign order. */
const std::vector<std::string>& campaignSystems();

/**
 * The simulations of one workload instance. @p toggle switches
 * campaign instrumentation off for a marginal-cost pass: "check"
 * drops the checker, "obs" drops the analyzer and tracer.
 */
std::vector<SimSpec> workloadSims(const std::string& workload,
                                  std::uint64_t seed,
                                  const std::string& toggle = "");

/**
 * Untimed reference simulations whose checksums the workload's
 * results must equal: the same input on the other memory system for
 * em3d-stache and mp3d-dirnnb, and one fault-free run per system for
 * fault-campaign.
 */
std::vector<SimSpec> referenceSims(const std::string& workload,
                                   std::uint64_t seed);

/** Names of the telemetry memory probes reported per layer. */
const std::vector<std::string>& probeNames();

} // namespace ttbench

#endif // TTBENCH_HARNESS_HH
