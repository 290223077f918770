/**
 * @file
 * Lightweight named-statistics registry, in the spirit of gem5's stats
 * package. Components register scalar counters under hierarchical
 * dotted names; a StatSet can be dumped as text or JSON, or queried
 * programmatically by tests and benches. Histogram is the fixed-width
 * bucket array the sharing analyzer's heatmaps are built from.
 */

#ifndef TT_SIM_STATS_HH
#define TT_SIM_STATS_HH

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace tt
{

/** A monotonically increasing scalar counter. */
class Counter
{
  public:
    void inc(std::uint64_t delta = 1) { _value += delta; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }
    /** Restore a checkpointed value (recovery only). */
    void set(std::uint64_t v) { _value = v; }

  private:
    std::uint64_t _value = 0;
};

/**
 * Fixed-width linear histogram with underflow and overflow buckets.
 *
 * Bucket i counts samples in the half-open interval
 * [i*width, (i+1)*width): a value exactly on a boundary always lands
 * in the bucket *starting* at that boundary. Negative samples go to
 * the underflow count, samples at or above buckets*width go to the
 * overflow count. Boundary comparisons are made against i*width
 * computed in double, so the placement is deterministic even when
 * v/width rounds across a bucket edge (e.g. 0.3/0.1 == 2.999...96).
 */
class Histogram
{
  public:
    Histogram(double bucket_width = 1.0, std::size_t buckets = 32)
        : _width(bucket_width), _buckets(buckets, 0)
    {
        tt_assert(bucket_width > 0 && buckets > 0,
                  "bad histogram configuration");
    }

    void
    sample(double v)
    {
        // Non-finite samples have no bucket, and casting NaN/Inf to an
        // index below is undefined behaviour: count them as underflow.
        if (!std::isfinite(v) || v < 0) {
            ++_underflow;
            return;
        }
        auto idx = static_cast<std::size_t>(v / _width);
        // Correct FP rounding in the division against the actual
        // bucket boundaries so [i*w, (i+1)*w) holds exactly.
        if (idx > 0 && v < static_cast<double>(idx) * _width)
            --idx;
        else if (v >= static_cast<double>(idx + 1) * _width)
            ++idx;
        if (idx >= _buckets.size())
            ++_overflow;
        else
            ++_buckets[idx];
    }

    const std::vector<std::uint64_t>& buckets() const { return _buckets; }
    std::uint64_t overflow() const { return _overflow; }
    std::uint64_t underflow() const { return _underflow; }
    double width() const { return _width; }
    std::size_t bucketCount() const { return _buckets.size(); }

    void
    reset()
    {
        for (auto& b : _buckets)
            b = 0;
        _overflow = 0;
        _underflow = 0;
    }

  private:
    double _width;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _overflow = 0;
    std::uint64_t _underflow = 0;
};

/**
 * A registry of named statistics. Components ask for counters by name;
 * repeated requests return the same object, so parallel components can
 * share aggregate stats or use per-node name prefixes.
 */
class StatSet
{
  public:
    Counter& counter(const std::string& name) { return _counters[name]; }

    /** Look up a counter value; 0 if never registered. */
    std::uint64_t
    get(const std::string& name) const
    {
        auto it = _counters.find(name);
        return it == _counters.end() ? 0 : it->second.value();
    }

    bool
    hasCounter(const std::string& name) const
    {
        return _counters.count(name) != 0;
    }

    /** Dump every counter, sorted by name, one per line. */
    void dump(std::ostream& os) const;

    /**
     * Dump as JSON, `{"counters": {name: integer, ...}}`, with stable
     * key order (the map is name-sorted).
     */
    void writeJson(std::ostream& os) const;
    bool writeJsonFile(const std::string& path) const;

    const std::map<std::string, Counter>& counters() const
    {
        return _counters;
    }

    /** Mutable view for checkpoint restore (src/recovery), which
     *  matches counters by name. */
    std::map<std::string, Counter>& mutableCounters()
    {
        return _counters;
    }

    void reset();

  private:
    std::map<std::string, Counter> _counters;
};

} // namespace tt

#endif // TT_SIM_STATS_HH
