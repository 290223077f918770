#include "obs/recorder.hh"

#include <iomanip>

#include "obs/perfetto.hh"
#include "obs/profiler.hh"
#include "obs/sharing.hh"
#include "obs/txn.hh"
#include "sim/stats.hh"

namespace tt
{

namespace
{

/** The process-wide crash recorder (installCrashDump). */
FlightRecorder* g_crashRecorder = nullptr;

void
crashDumpHook()
{
    if (g_crashRecorder) {
        std::ostringstream oss;
        oss << "--- flight recorder tail ---\n";
        g_crashRecorder->dumpTail(oss);
        std::fputs(oss.str().c_str(), stderr);
    }
}

const char*
recKindName(RecKind k)
{
    switch (k) {
      case RecKind::MsgSend:
        return "send";
      case RecKind::MsgDeliver:
        return "deliver";
      case RecKind::HandlerDone:
        return "handler";
      case RecKind::BlockFault:
        return "fault";
      case RecKind::MissStart:
        return "miss+";
      case RecKind::MissEnd:
        return "miss-";
      case RecKind::Resume:
        return "resume";
      case RecKind::TagChange:
        return "tag";
      case RecKind::PageMap:
        return "map";
      case RecKind::PageUnmap:
        return "unmap";
      case RecKind::BulkPacket:
        return "bulk";
      case RecKind::BlockAccess:
        return "access";
      case RecKind::InvalSent:
        return "inval";
      case RecKind::DirTrans:
        return "dir";
      case RecKind::MsgSup:
        return "sup";
    }
    return "?";
}

} // namespace

FlightRecorder::FlightRecorder(int nodes, std::size_t ringCap)
{
    tt_assert(nodes > 0 && ringCap > 0, "bad recorder configuration");
    _rings.resize(static_cast<std::size_t>(nodes));
    for (Ring& r : _rings)
        r.buf.resize(ringCap);
}

FlightRecorder::~FlightRecorder()
{
    finalize();
    if (_crashHooked && g_crashRecorder == this) {
        g_crashRecorder = nullptr;
        setPanicHook(nullptr);
    }
}

void
FlightRecorder::openTrace(const std::string& path)
{
    _writer = std::make_unique<PerfettoWriter>(path, nodes());
    _haveConsumers = true;
}

void
FlightRecorder::enableProfiler(StatSet& stats)
{
    _profiler = std::make_unique<LatencyProfiler>(stats, nodes());
    _haveConsumers = true;
}

void
FlightRecorder::enableSharing(std::uint32_t block_size,
                              std::uint32_t page_size)
{
    SharingParams p;
    p.blockSize = block_size;
    p.pageSize = page_size;
    _sharing = std::make_unique<SharingAnalyzer>(nodes(), p);
    _haveConsumers = true;
}

void
FlightRecorder::enableTxn(StatSet& stats, std::uint32_t block_size,
                          std::uint32_t page_size)
{
    TxnParams p;
    p.blockSize = block_size;
    p.pageSize = page_size;
    _txn = std::make_unique<TxnTracer>(nodes(), stats, p);
    _wantTxn = true;
    _openTxn.assign(static_cast<std::size_t>(nodes()), 0);
    _actTxn.assign(static_cast<std::size_t>(nodes()), 0);
    _haveConsumers = true;
}

void
FlightRecorder::enableSampler(StatSet& stats, Tick period)
{
    tt_assert(period > 0, "sampler period must be positive");
    _sampleStats = &stats;
    _samplePeriod = period;
    _nextSample = period;
    _haveConsumers = true;
}

void
FlightRecorder::installCrashDump()
{
    // Latest wins: tests and benches build machines back to back, and
    // the most recently built one is the interesting crash context.
    g_crashRecorder = this;
    _crashHooked = true;
    setPanicHook(&crashDumpHook);
}

void
FlightRecorder::nameHandler(HandlerId id, const char* name)
{
    _handlerNames[id] = name;
}

const char*
FlightRecorder::handlerName(HandlerId id) const
{
    auto it = _handlerNames.find(id);
    if (it != _handlerNames.end())
        return it->second;
    // Stable fallback for unregistered ids; storage must outlive the
    // caller's use, so cache the formatted name.
    auto [fit, inserted] =
        _fallbackNames.emplace(id, "handler_" + std::to_string(id));
    return fit->second.c_str();
}

void
FlightRecorder::consume(const TraceRecord& r)
{
    // Interval sampler: snapshot counters whenever sim-time crosses a
    // period boundary. Driven off the record stream (never off the
    // event queue, which would perturb event sequence numbers).
    if (_samplePeriod && r.tick >= _nextSample) {
        const Tick boundary = r.tick - (r.tick % _samplePeriod);
        sampleCounters(boundary);
        _nextSample = boundary + _samplePeriod;
    }
    if (_writer)
        _writer->write(r, *this);
    if (_profiler)
        _profiler->fold(r);
    if (_sharing)
        _sharing->fold(r);
    if (_txn)
        _txn->fold(r);
}

void
FlightRecorder::sampleCounters(Tick boundary)
{
    if (!_writer || !_sampleStats)
        return;
    for (const auto& [name, c] : _sampleStats->counters())
        _writer->counter(boundary, name, c.value());
    // Gauges that are not StatSet counters: the number of misses open
    // right now (a live queue-depth track in the Perfetto UI).
    if (_profiler)
        _writer->counter(boundary, "obs.miss.open",
                         _profiler->openMisses());
}

void
FlightRecorder::finalize()
{
    if (_finalized)
        return;
    _finalized = true;
    if (_txn)
        _txn->finalize(_sharing.get());
    if (_writer)
        _writer->close();
}

std::vector<TraceRecord>
FlightRecorder::ringOf(NodeId n) const
{
    const Ring& ring = _rings.at(static_cast<std::size_t>(n));
    std::vector<TraceRecord> out;
    const std::size_t kept =
        ring.total < ring.buf.size()
            ? static_cast<std::size_t>(ring.total)
            : ring.buf.size();
    out.reserve(kept);
    // Oldest retained record sits at `next` once the ring has wrapped.
    std::size_t pos =
        ring.total < ring.buf.size() ? 0 : ring.next;
    for (std::size_t i = 0; i < kept; ++i) {
        out.push_back(ring.buf[pos]);
        pos = (pos + 1) % ring.buf.size();
    }
    return out;
}

void
FlightRecorder::formatRecord(std::ostream& os,
                             const TraceRecord& r) const
{
    os << "  [" << std::setw(10) << r.tick << "] n" << r.node << " "
       << recKindName(r.kind);
    switch (r.kind) {
      case RecKind::MsgSend:
        os << " msg=" << r.id << " "
           << handlerName(static_cast<HandlerId>(r.addr)) << " ->n"
           << r.arg << " vnet=" << int(r.sub) << " arrive=" << r.t2;
        break;
      case RecKind::MsgDeliver:
        os << " msg=" << r.id << " "
           << handlerName(static_cast<HandlerId>(r.addr))
           << " vnet=" << int(r.sub);
        break;
      case RecKind::HandlerDone:
        os << (r.sub == 0 ? " msg" : r.sub == 1 ? " baf" : " page")
           << "=" << r.id << " charged=" << r.t2;
        if (r.sub == 0)
            os << " " << handlerName(static_cast<HandlerId>(r.addr));
        break;
      case RecKind::BlockFault:
        os << (r.sub ? " wr" : " rd") << " va=0x" << std::hex << r.addr
           << std::dec << " tag=" << r.arg;
        break;
      case RecKind::MissStart:
      case RecKind::MissEnd:
        os << (r.sub ? " wr" : " rd") << " addr=0x" << std::hex
           << r.addr << std::dec;
        break;
      case RecKind::Resume:
        break;
      case RecKind::TagChange:
        os << " blk=0x" << std::hex << r.addr << std::dec << " tag="
           << int(r.sub);
        break;
      case RecKind::PageMap:
        os << " va=0x" << std::hex << r.addr << std::dec
           << " mode=" << r.arg;
        break;
      case RecKind::PageUnmap:
        os << " va=0x" << std::hex << r.addr << std::dec;
        break;
      case RecKind::BulkPacket:
        os << " bytes=" << r.arg << " cost=" << r.t2;
        break;
      case RecKind::BlockAccess:
        os << (r.sub ? " wr" : " rd") << " va=0x" << std::hex << r.addr
           << std::dec << " size=" << r.arg;
        break;
      case RecKind::InvalSent:
        os << " blk=0x" << std::hex << r.addr << std::dec << " kind="
           << int(r.sub) << " fanout=" << r.arg << " req=n"
           << static_cast<NodeId>(r.id);
        break;
      case RecKind::DirTrans:
        os << " blk=0x" << std::hex << r.addr << std::dec << " "
           << r.arg << "->" << int(r.sub);
        break;
      case RecKind::MsgSup:
        os << " msg=" << r.id << " "
           << handlerName(static_cast<HandlerId>(r.addr)) << " from=n"
           << static_cast<NodeId>(r.arg) << " vnet=" << int(r.sub);
        break;
    }
    if (r.txn)
        os << " txn=" << r.txn;
    if (r.flags & kRecRetransmit)
        os << " retx";
    if (r.flags & kRecDropped)
        os << " drop";
    os << "\n";
}

void
FlightRecorder::dumpTail(std::ostream& os, std::size_t perNode) const
{
    for (NodeId n = 0; n < nodes(); ++n) {
        const std::vector<TraceRecord> ring = ringOf(n);
        if (ring.empty())
            continue;
        const std::size_t keep =
            ring.size() < perNode ? ring.size() : perNode;
        os << "node " << n << " (last " << keep << " of "
           << _rings[static_cast<std::size_t>(n)].total
           << " records):\n";
        for (std::size_t i = ring.size() - keep; i < ring.size(); ++i)
            formatRecord(os, ring[i]);
    }
}

} // namespace tt
