#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>

#include "config/campaign.hh"
#include "sim/host_timer.hh"
#include "sim/watchdog.hh"

namespace ttbench
{

using tt::AccessOutcome;
using tt::HostTimer;
using tt::MemorySystem;

const char* const kCampaignFaults =
    "drop=0.01,dup=0.01,reorder=0.05,crash@30000:3";

namespace
{

/** 1 in kAccessSample access() calls is timed (a power of two). */
constexpr std::uint64_t kAccessSample = 64;

/** run_s is split into a slice every kSliceCalls access() calls. */
constexpr std::uint64_t kSliceCalls = 256;

/**
 * EM3D small and MP3D large are divided by these. Each half-size
 * simulation keeps the full-size share of inline accesses (88 % and
 * 17 %). The default-seed oracle checksums in spec.json assume them.
 */
constexpr int kEm3dScale = 2;
constexpr int kMp3dScale = 2;

/** Fault seeds per system in the fault-campaign workload. */
constexpr int kCampaignSeeds = 4;

/** Median TSC ticks of an empty timed interval: the timer's cost. */
double
timerCostTicks()
{
    static const double cost = [] {
        std::vector<std::uint64_t> d(1001);
        for (auto& v : d) {
            const std::uint64_t t0 = HostTimer::nowTsc();
            v = HostTimer::nowTsc() - t0;
        }
        std::nth_element(d.begin(), d.begin() + 500, d.end());
        return static_cast<double>(d[500]);
    }();
    return cost;
}

/**
 * Forwarding App: stamps setup(), spans setup() and finish() in traced
 * runs, and passes everything else through. supportsEpochRestart and
 * setStartEpoch must pass through or crash recovery cannot respawn
 * the bodies.
 */
class TimedApp final : public tt::App
{
  public:
    TimedApp(tt::App& inner, SpanLog* log, int sim)
        : _inner(inner), _log(log), _sim(sim)
    {
    }

    std::string name() const override { return _inner.name(); }

    void
    setup(tt::Machine& m) override
    {
        SpanScope s(_log, "apps.setup", _sim);
        setupBegin = nowS();
        _inner.setup(m);
        setupEnd = nowS();
    }

    tt::Task<void> body(tt::Cpu& cpu) override { return _inner.body(cpu); }

    void
    finish(tt::Machine& m) override
    {
        SpanScope s(_log, "apps.finish", _sim);
        _inner.finish(m);
    }

    bool
    supportsEpochRestart() const override
    {
        return _inner.supportsEpochRestart();
    }

    void
    setStartEpoch(std::uint64_t episodes) override
    {
        _inner.setStartEpoch(episodes);
    }

    double setupBegin = 0, setupEnd = 0;

  private:
    tt::App& _inner;
    SpanLog* _log;
    int _sim;
};

/**
 * Forwarding MemorySystem: counts every access() and its inline
 * completions, reads the clock before every kSliceCalls-th call and,
 * when @p sample is set, times every kAccessSample-th call with the
 * TSC. Every other virtual passes straight through.
 */
class SampledMemSystem final : public MemorySystem
{
  public:
    SampledMemSystem(MemorySystem& inner, bool sample)
        : _inner(inner), _sample(sample), _timerTicks(timerCostTicks())
    {
    }

    AccessOutcome
    access(tt::MemRequest* req) override
    {
        const std::uint64_t n = ++_s.calls;
        if ((n & (kSliceCalls - 1)) == 0)
            _stamps.push_back(nowS());
        if (!_sample || (n & (kAccessSample - 1)) != 0) {
            const AccessOutcome o = _inner.access(req);
            _s.inlineDone += o.inlineDone;
            return o;
        }
        const std::uint64_t t0 = HostTimer::nowTsc();
        const AccessOutcome o = _inner.access(req);
        const std::uint64_t t1 = HostTimer::nowTsc();
        _s.inlineDone += o.inlineDone;
        const double dt = static_cast<double>(t1 - t0) - _timerTicks;
        ++_s.sampled;
        _s.sumTicks += dt;
        _s.sumSqTicks += dt * dt;
        return o;
    }

    tt::Addr
    shmalloc(std::size_t bytes, tt::NodeId home) override
    {
        return _inner.shmalloc(bytes, home);
    }
    tt::NodeId homeOf(tt::Addr va) const override
    {
        return _inner.homeOf(va);
    }
    void
    peek(tt::Addr va, void* buf, std::size_t len) override
    {
        _inner.peek(va, buf, len);
    }
    void
    poke(tt::Addr va, const void* buf, std::size_t len) override
    {
        _inner.poke(va, buf, len);
    }
    tt::Tick
    oldestPendingSince() const override
    {
        return _inner.oldestPendingSince();
    }
    bool quiescent() const override { return _inner.quiescent(); }
    void setupComplete() override { _inner.setupComplete(); }
    std::vector<SharedRange>
    sharedAllocs() const override
    {
        return _inner.sharedAllocs();
    }
    void
    coherentPeek(tt::Addr va, void* buf, std::size_t len) override
    {
        _inner.coherentPeek(va, buf, len);
    }
    void
    canonicalize(std::uint64_t epochSeed) override
    {
        _inner.canonicalize(epochSeed);
    }
    std::string name() const override { return _inner.name(); }

    /** The samples so far, with @p nsPerTick as their calibration. */
    AccessSample
    result(double nsPerTick) const
    {
        AccessSample s = _s;
        s.nsPerTick = nsPerTick;
        return s;
    }

    /** Clock reads (nowS) before every kSliceCalls-th access(). */
    const std::vector<double>& stamps() const { return _stamps; }

  private:
    MemorySystem& _inner;
    bool _sample;
    double _timerTicks;
    AccessSample _s;
    std::vector<double> _stamps;
};

/** StatSet counters reported per layer (0 where a layer is absent). */
const char* const kStatCounters[] = {
    "typhoon.block_faults", "typhoon.tlb_misses",  "np.msg_handled",
    "np.instructions",      "stache.home_requests", "stache.invals_sent",
    "dir.remote_misses",    "dir.inv_sent",         "dir.recalls_sent",
    "dir.tlb_misses",       "net.messages",         "net.words",
    "net.retransmits",      "net.acks",             "net.dup_dropped"};

/** Exact per-layer counts: StatSet counters plus checker/recovery. */
void
readCounts(SimResult& res, const tt::TargetMachine& t)
{
    const tt::StatSet& stats = t.machine->stats();
    for (const char* name : kStatCounters)
        res.counts[name] = static_cast<double>(stats.get(name));
    res.counts["check.violations"] =
        t.checker ? static_cast<double>(t.checker->violations().size())
                  : 0;
    res.counts["recovery.crashes"] =
        t.recovery ? static_cast<double>(t.recovery->crashesInjected())
                   : 0;
    res.counts["recovery.recoveries"] =
        t.recovery ? static_cast<double>(t.recovery->recoveriesDone())
                   : 0;
    res.counts.emplace("obs.txn_completed", 0);
}

} // namespace

double
nowS()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point origin = clock::now();
    return std::chrono::duration<double>(clock::now() - origin).count();
}

int
SpanLog::open(const char* name, int sim)
{
    Span s;
    s.name = name;
    s.start = nowS();
    s.parent = _stack.empty() ? -1 : _stack.back();
    s.sim = sim;
    _spans.push_back(s);
    _stack.push_back(static_cast<int>(_spans.size() - 1));
    return _stack.back();
}

void
SpanLog::close(int id)
{
    _spans[static_cast<std::size_t>(id)].end = nowS();
    tt_assert(!_stack.empty() && _stack.back() == id,
              "span closed out of order");
    _stack.pop_back();
}

double
SpanLog::selfTime(int id) const
{
    const Span& s = _spans[static_cast<std::size_t>(id)];
    double self = s.end - s.start;
    // Children open after their parent and before it closes.
    for (std::size_t i = static_cast<std::size_t>(id) + 1;
         i < _spans.size() && _spans[i].start <= s.end; ++i) {
        if (_spans[i].parent == id)
            self -= _spans[i].end - _spans[i].start;
    }
    return self;
}

void
SpanLog::writeJson(std::ostream& os) const
{
    os.precision(12);
    os << "[\n";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span& s = _spans[i];
        os << "  {\"id\": " << i << ", \"name\": \"" << s.name
           << "\", \"sim\": " << s.sim << ", \"parent\": " << s.parent
           << ", \"start\": " << s.start << ", \"end\": " << s.end
           << "}" << (i + 1 < _spans.size() ? "," : "") << "\n";
    }
    os << "]\n";
}

double
AccessSample::seconds() const
{
    if (!sampled)
        return 0;
    return static_cast<double>(calls) / static_cast<double>(sampled) *
           sumTicks * nsPerTick * 1e-9;
}

double
AccessSample::stdErr() const
{
    if (sampled < 2)
        return 0;
    const double n = static_cast<double>(sampled);
    const double N = static_cast<double>(calls);
    const double var =
        std::max(0.0, (sumSqTicks - sumTicks * sumTicks / n) / (n - 1));
    // Standard error of the extrapolated total N * mean, with the
    // finite-population correction for sampling n of N calls.
    return N * std::sqrt(var / n * std::max(0.0, 1 - n / N)) *
           nsPerTick * 1e-9;
}

tt::TargetMachine
buildSystem(const std::string& system, const tt::MachineConfig& cfg)
{
    if (system == "dirnnb")
        return tt::buildDirNNB(cfg);
    if (system == "stache")
        return tt::buildTyphoonStache(cfg);
    if (system == "migratory")
        return tt::buildTyphoonMigratory(cfg);
    if (system == "update")
        return tt::buildTyphoonEm3dUpdate(cfg);
    tt_fatal("unknown system '", system, "'");
}

std::unique_ptr<tt::BenchApp>
makeApp(const SimSpec& spec, tt::TargetMachine& target)
{
    if (spec.app == "em3d") {
        tt::Em3dApp::Params p = tt::em3dParams(spec.dataset, 0.2, spec.scale);
        p.seed = spec.appSeed;
        if (spec.system == "update") {
            return std::make_unique<tt::Em3dApp>(
                p, tt::Em3dApp::Mode::Update, target.em3d);
        }
        return std::make_unique<tt::Em3dApp>(p);
    }
    if (spec.app == "mp3d") {
        // makeWorkload's Table 3 data sets, with the input seed set.
        const bool tiny = spec.dataset == tt::DataSet::Tiny;
        const bool small = spec.dataset == tt::DataSet::Small;
        tt::Mp3dApp::Params p;
        p.nmol = tiny ? 512 : (small ? 10000 : 50000) / spec.scale;
        p.cellDim = tiny ? 4 : (small ? 8 : 14);
        p.iterations = 3;
        p.seed = spec.appSeed;
        return std::make_unique<tt::Mp3dApp>(p);
    }
    tt_fatal("unknown app '", spec.app, "'");
}

SimResult
runSimulation(const SimSpec& spec, const RunOptions& opt)
{
    SimResult res;
    SpanLog* log = opt.spans;
    const int sim = opt.simId;
    SpanScope simSpan(log, "sim", sim);

    tt::MachineConfig cfg = spec.cfg;
    cfg.obs.telemetry = opt.telemetry;

    std::unique_ptr<tt::TargetMachine> target;
    {
        SpanScope s(log, "config.build", sim);
        const double b0 = nowS();
        target = std::make_unique<tt::TargetMachine>(
            buildSystem(spec.system, cfg));
        res.buildS = nowS() - b0;
    }
    std::unique_ptr<tt::BenchApp> app = makeApp(spec, *target);
    TimedApp timed(*app, log, sim);
    SampledMemSystem fwd(target->m().memsys(), log != nullptr);
    target->m().setMemSystem(&fwd);

    if (target->telemetry)
        target->telemetry->runBegin();
    const std::uint64_t tsc0 = HostTimer::nowTsc();
    const double run0 = nowS();
    {
        SpanScope s(log, "core.run", sim);
        // The outcome classes of runCampaign, for every simulation.
        try {
            const tt::RunResult r = target->run(timed);
            res.cycles = r.execTime;
            res.events = r.events;
            res.checksum = app->checksum();
        } catch (const tt::UnrecoverableCrash& e) {
            res.outcome = "unrecoverable";
            res.detail = e.what();
        } catch (const tt::WatchdogTimeout& e) {
            res.outcome = "watchdog";
            res.detail = e.what();
        } catch (const std::logic_error& e) {
            res.outcome = "panic";
            res.detail = e.what();
        } catch (const std::exception& e) {
            res.outcome = "error";
            res.detail = e.what();
        }
    }
    const double run1 = nowS();
    const std::uint64_t tsc1 = HostTimer::nowTsc();
    if (target->telemetry)
        target->telemetry->runEnd();
    res.setupS = timed.setupEnd - timed.setupBegin;

    // Checked results: the campaign's checker verdict and observer
    // summaries belong to the run, as runCampaign collects them.
    const double post0 = nowS();
    if (target->checker) {
        SpanScope s(log, "check.finalize", sim);
        // As runCampaign: an aborted run is not finalized, because
        // its quiescence checks would report the abort itself.
        if (res.outcome == "ok")
            target->checker->finalize();
        if (!target->checker->violations().empty()) {
            if (res.outcome == "ok")
                res.outcome = "violation";
            if (res.detail.empty())
                res.detail =
                    target->checker->violations().front().invariant;
        }
    }
    if (target->recovery)
        target->recovery->finalizeStats();
    if (target->obs && (target->obs->sharing() || target->obs->txn())) {
        SpanScope s(log, "obs.fold", sim);
        if (target->obs->sharing())
            (void)target->obs->sharing()->summarize();
        if (target->obs->txn()) {
            target->obs->finalize();
            const tt::TxnTracer::Summary txn =
                target->obs->txn()->summarize();
            (void)target->obs->txn()->dominantPattern();
            res.counts["obs.txn_completed"] =
                static_cast<double>(txn.completed);
        }
    }
    const double post1 = nowS();
    const double firstEvent = timed.setupEnd > 0 ? timed.setupEnd : run0;
    res.runS = (run1 - firstEvent) + (post1 - post0);
    double last = firstEvent;
    for (const double t : fwd.stamps()) {
        res.slices.push_back(t - last);
        last = t;
    }
    res.slices.push_back(run1 - last);
    res.slices.push_back(post1 - post0);

    readCounts(res, *target);
    if (log && tsc1 > tsc0) {
        const double nsPerTick =
            (run1 - run0) * 1e9 / static_cast<double>(tsc1 - tsc0);
        res.access = fwd.result(nsPerTick);
    }
    if (target->telemetry) {
        for (const auto& p : target->telemetry->probeResults())
            res.memPeakMb[p.name] =
                static_cast<double>(p.peakBytes) / (1024.0 * 1024.0);
    }
    if (log) {
        std::ostringstream os;
        target->m().stats().writeJson(os);
        res.statsJson = os.str();
    }

    SpanScope teardown(log, "config.teardown", sim);
    target.reset();
    return res;
}

double
setupSeconds(const SimSpec& spec)
{
    const double t0 = nowS();
    tt::TargetMachine target = buildSystem(spec.system, spec.cfg);
    std::unique_ptr<tt::BenchApp> app = makeApp(spec, target);
    app->setup(target.m());
    return nowS() - t0;
}

const std::vector<std::string>&
campaignSystems()
{
    static const std::vector<std::string> systems = {
        "dirnnb", "stache", "migratory", "update"};
    return systems;
}

std::vector<SimSpec>
workloadSims(const std::string& workload, std::uint64_t seed,
             const std::string& toggle)
{
    std::vector<SimSpec> sims;
    if (workload == "em3d-stache") {
        SimSpec s;
        s.system = "stache";
        s.app = "em3d";
        s.dataset = tt::DataSet::Small;
        s.scale = kEm3dScale;
        s.appSeed = seed;
        sims.push_back(s);
    } else if (workload == "mp3d-dirnnb") {
        SimSpec s;
        s.system = "dirnnb";
        s.app = "mp3d";
        s.dataset = tt::DataSet::Large;
        s.scale = kMp3dScale;
        s.appSeed = seed;
        sims.push_back(s);
    } else if (workload == "fault-campaign") {
        // Systems outer, seeds inner, seeds derived from the base
        // seed by campaignSeed(): the order and inputs of runCampaign.
        for (const std::string& system : campaignSystems()) {
            for (int i = 0; i < kCampaignSeeds; ++i) {
                SimSpec s;
                s.system = system;
                s.app = "em3d";
                s.dataset = tt::DataSet::Tiny;
                s.appSeed = seed;
                s.cfg.faults = tt::parseFaultSpec(kCampaignFaults);
                s.cfg.faults.seed = tt::campaignSeed(seed, i);
                s.cfg.check.enable = toggle != "check";
                s.cfg.obs.analyze = toggle != "obs";
                s.cfg.obs.txn = toggle != "obs";
                sims.push_back(s);
            }
        }
    } else {
        tt_fatal("unknown workload '", workload, "'");
    }
    return sims;
}

std::vector<SimSpec>
referenceSims(const std::string& workload, std::uint64_t seed)
{
    std::vector<SimSpec> refs;
    if (workload == "fault-campaign") {
        for (const std::string& system : campaignSystems()) {
            SimSpec s;
            s.system = system;
            s.app = "em3d";
            s.dataset = tt::DataSet::Tiny;
            s.appSeed = seed;
            refs.push_back(s);
        }
        return refs;
    }
    SimSpec s = workloadSims(workload, seed).front();
    s.system = s.system == "stache" ? "dirnnb" : "stache";
    refs.push_back(s);
    return refs;
}

const std::vector<std::string>&
probeNames()
{
    static const std::vector<std::string> names = {
        "event_queue", "network",  "typhoon",  "protocol",
        "dirnnb",      "checker",  "recorder", "transport"};
    return names;
}

} // namespace ttbench
