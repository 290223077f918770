/**
 * @file
 * Unreliable-network fault model (DESIGN.md §10).
 *
 * Tempest and Typhoon assume a lossless, per-link-FIFO fabric; a real
 * user-level DSM pushes reliability into the user-level transport.
 * FaultModel is the seam where the fabric stops being trustworthy: a
 * Network optionally holds a `FaultModel* _faults = nullptr` (the same
 * null-pointer/untaken-branch pattern as CheckHooks and
 * FlightRecorder, so the fault-off hot path and all seed outputs stay
 * bit-identical) and asks it for a verdict on every remote message.
 *
 * SeededFaultModel is the production implementation: per-message drop,
 * duplication, bounded reordering, transient link partitions, node
 * pause/resume, and permanent link cuts, all drawn from one private
 * Rng so a (seed, FaultParams) pair replays bit-identically.
 */

#ifndef TT_NET_FAULT_MODEL_HH
#define TT_NET_FAULT_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "net/message.hh"
#include "sim/logging.hh"
#include "sim/parse_num.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tt
{

/** Configuration of the seeded fault injector (ttsim --faults=SPEC). */
struct FaultParams
{
    double drop = 0;    ///< per-message loss probability
    double dup = 0;     ///< per-message duplication probability
    double reorder = 0; ///< per-message extra-delay probability
    /** Max extra delay (ticks) for a reordered or duplicated copy. */
    Tick reorderMax = 16;
    /** Probability a message opens a transient partition on its link. */
    double partition = 0;
    Tick partitionMax = 400; ///< max partition window length (ticks)
    /** Probability a message opens a pause window on its endpoints. */
    double pause = 0;
    Tick pauseMax = 300; ///< max node-pause window length (ticks)
    /** Permanently cut (one-way) links: every message on one is lost. */
    std::vector<std::pair<NodeId, NodeId>> cuts;
    /**
     * Crash-stop node failures (`crash@TICK:NODE`, DESIGN.md §15):
     * at TICK the node's caches, in-flight handlers, and transport
     * sessions vanish; survivors observe it through dead-link
     * declaration and the recovery coordinator rolls the machine back
     * to the last checkpoint. Injected by the recovery subsystem, not
     * by the per-message verdict path.
     */
    std::vector<std::pair<Tick, NodeId>> crashes;
    std::uint64_t seed = 0; ///< RNG seed; replay needs (seed, params)

    bool
    any() const
    {
        return drop > 0 || dup > 0 || reorder > 0 || partition > 0 ||
               pause > 0 || !cuts.empty() || !crashes.empty();
    }
};

/**
 * Abstract fault verdict source. Network::send consults it once per
 * remote message, after computing the lossless arrival time; tests
 * install bespoke models to force exact fault sequences.
 */
class FaultModel
{
  public:
    virtual ~FaultModel() = default;

    struct Verdict
    {
        bool drop = false;   ///< message never arrives
        Tick arrive = 0;     ///< (possibly delayed) arrival tick
        Tick dupArrive = 0;  ///< nonzero: deliver a second copy then
    };

    /**
     * Judge a remote message departing at @p when that would arrive at
     * @p arrive on the lossless fabric. Never called for node-local
     * messages (they short-circuit the fabric).
     */
    virtual Verdict onMessage(const Message& m, Tick when,
                              Tick arrive) = 0;
};

/** The deterministic, seeded production fault injector. */
class SeededFaultModel final : public FaultModel
{
  public:
    SeededFaultModel(int nodes, FaultParams params, StatSet& stats)
        : _p(std::move(params)),
          _nodes(nodes),
          _rng(_p.seed),
          _partUntil(static_cast<std::size_t>(nodes) * nodes, 0),
          _pauseUntil(nodes, 0),
          _cut(static_cast<std::size_t>(nodes) * nodes, 0),
          _drops(stats.counter("net.faults.drops")),
          _dups(stats.counter("net.faults.dups")),
          _reorders(stats.counter("net.faults.reorders")),
          _partitions(stats.counter("net.faults.partitions")),
          _partDrops(stats.counter("net.faults.partition_drops")),
          _pauses(stats.counter("net.faults.pauses")),
          _pauseDelays(stats.counter("net.faults.pause_delays"))
    {
        for (const auto& [a, b] : _p.cuts) {
            tt_assert(a >= 0 && a < nodes && b >= 0 && b < nodes,
                      "fault cut names bad link ", a, "-", b);
            _cut[link(a, b)] = 1;
        }
    }

    const FaultParams& params() const { return _p; }

    /**
     * Canonicalize transient state (checkpoint/rollback, DESIGN.md
     * §15): reseed the verdict RNG from the epoch-derived seed and
     * heal open partition/pause windows. Permanent cuts and the
     * configured crash schedule are construction facts and stay.
     */
    void
    resetTransient(std::uint64_t epochSeed)
    {
        _rng = Rng(epochSeed);
        std::fill(_partUntil.begin(), _partUntil.end(), 0);
        std::fill(_pauseUntil.begin(), _pauseUntil.end(), 0);
    }

    /** Total faults injected so far (campaign reporting). */
    std::uint64_t
    injected() const
    {
        return _drops.value() + _dups.value() + _reorders.value() +
               _partDrops.value() + _pauseDelays.value();
    }

    Verdict
    onMessage(const Message& m, Tick when, Tick arrive) override
    {
        Verdict v;
        v.arrive = arrive;

        if (_cut[link(m.src, m.dst)]) {
            v.drop = true;
            _partDrops.inc();
            return v;
        }

        // Node pause/resume: the endpoint's network interface stalls
        // for a window; traffic in either direction waits it out
        // (local compute continues — only the NI is paused).
        if (_p.pause > 0 && _rng.chance(_p.pause)) {
            Tick& until = _pauseUntil[m.dst];
            until = std::max(until, when) + 1 +
                    static_cast<Tick>(_rng.below(_p.pauseMax));
            _pauses.inc();
        }
        const Tick stall =
            std::max(_pauseUntil[m.src], _pauseUntil[m.dst]);
        if (stall > v.arrive) {
            v.arrive = stall;
            _pauseDelays.inc();
        }

        // Transient link partition: opened lazily by a send, eats
        // every message on the link until it heals.
        Tick& part = _partUntil[link(m.src, m.dst)];
        if (_p.partition > 0 && when >= part &&
            _rng.chance(_p.partition)) {
            part = when + 1 +
                   static_cast<Tick>(_rng.below(_p.partitionMax));
            _partitions.inc();
        }
        if (when < part) {
            v.drop = true;
            _partDrops.inc();
            return v;
        }

        if (_p.drop > 0 && _rng.chance(_p.drop)) {
            v.drop = true;
            _drops.inc();
            return v;
        }
        if (_p.dup > 0 && _rng.chance(_p.dup)) {
            v.dupArrive = v.arrive + 1 +
                          static_cast<Tick>(_rng.below(_p.reorderMax));
            _dups.inc();
        }
        if (_p.reorder > 0 && _rng.chance(_p.reorder)) {
            // Deliberately NOT FIFO-clamped (unlike perturbation
            // jitter): breaking channel order is the fault being
            // modeled; the reliable transport must restore it.
            v.arrive += 1 + static_cast<Tick>(_rng.below(_p.reorderMax));
            _reorders.inc();
        }
        return v;
    }

  private:
    std::size_t
    link(NodeId s, NodeId d) const
    {
        return static_cast<std::size_t>(s) * _nodes + d;
    }

    FaultParams _p;
    int _nodes;
    Rng _rng;
    std::vector<Tick> _partUntil;  ///< per-link partition end
    std::vector<Tick> _pauseUntil; ///< per-node NI stall end
    std::vector<std::uint8_t> _cut;

    Counter& _drops;
    Counter& _dups;
    Counter& _reorders;
    Counter& _partitions;
    Counter& _partDrops;
    Counter& _pauses;
    Counter& _pauseDelays;
};

/**
 * Parse a ttsim --faults=SPEC string into FaultParams. Keys:
 *   drop=P | dup=P | reorder=P[:MAX] | partition=P[:MAXLEN]
 *   | pause=P[:MAXLEN] | cut=A-B | crash@TICK:NODE | seed=N
 * separated by commas; cut= may repeat and cuts both directions;
 * crash@ may repeat to schedule several crash-stop failures.
 * Unknown keys, and numbers that do not parse whole, are usage errors
 * (tt_fatal).
 */
inline FaultParams
parseFaultSpec(const std::string& spec)
{
    FaultParams p;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(pos, end - pos);
        pos = end + 1;
        if (item.empty())
            continue;
        // Every number parses whole (parseNum): "0.01xyz", "abc" and
        // "" are usage errors, not a prefix or a silent zero. Ticks
        // and seeds take base 0 (0x.. and 0.. prefixes); node ids
        // are decimal and range-checked by MachineConfig::validate().
        const std::string what = "--faults: " + item;
        auto node = [&](const std::string& v) {
            return parseNum<NodeId>(what, v,
                                    std::numeric_limits<NodeId>::min(),
                                    std::numeric_limits<NodeId>::max());
        };
        auto tick = [&](const std::string& v) {
            return parseNum<Tick>(what, v, 1, kTickMax, 0);
        };
        // crash@TICK:NODE — the one key using @, not = (a crash is a
        // point event, not a rate).
        if (item.rfind("crash@", 0) == 0) {
            const std::string v = item.substr(6);
            const std::size_t colon = v.find(':');
            if (colon == std::string::npos || colon == 0)
                tt_fatal("--faults: crash wants crash@TICK:NODE, got '",
                         item, "'");
            p.crashes.emplace_back(tick(v.substr(0, colon)),
                                   node(v.substr(colon + 1)));
            continue;
        }
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            tt_fatal("--faults: expected key=value, got '", item, "'");
        const std::string key = item.substr(0, eq);
        const std::string val = item.substr(eq + 1);
        auto prob = [&](const std::string& v) {
            return parseNum(what, v, 0.0, 1.0);
        };
        // P[:N] — probability with an optional tick bound.
        auto split = [&](Tick* bound) {
            const std::size_t colon = val.find(':');
            if (colon == std::string::npos)
                return prob(val);
            *bound = tick(val.substr(colon + 1));
            return prob(val.substr(0, colon));
        };
        if (key == "drop") {
            p.drop = prob(val);
        } else if (key == "dup") {
            p.dup = prob(val);
        } else if (key == "reorder") {
            p.reorder = split(&p.reorderMax);
        } else if (key == "partition") {
            p.partition = split(&p.partitionMax);
        } else if (key == "pause") {
            p.pause = split(&p.pauseMax);
        } else if (key == "cut") {
            const std::size_t dash = val.find('-');
            if (dash == std::string::npos)
                tt_fatal("--faults: cut wants A-B, got '", val, "'");
            const NodeId a = node(val.substr(0, dash));
            const NodeId b = node(val.substr(dash + 1));
            p.cuts.emplace_back(a, b);
            p.cuts.emplace_back(b, a);
        } else if (key == "seed") {
            p.seed = parseNum<std::uint64_t>(
                what, val, 0, std::numeric_limits<std::uint64_t>::max(),
                0);
        } else {
            tt_fatal(
                "--faults: unknown key '", key,
                "' (drop|dup|reorder|partition|pause|cut|crash@|seed)");
        }
    }
    if (!p.any())
        tt_fatal("--faults: spec '", spec, "' injects nothing");
    return p;
}

} // namespace tt

#endif // TT_NET_FAULT_MODEL_HH
