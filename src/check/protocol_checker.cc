#include "check/protocol_checker.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "core/machine.hh"
#include "dir/dir_mem_system.hh"
#include "mem/addr.hh"
#include "mem/cache_model.hh"
#include "mem/page_table.hh"
#include "mem/phys_mem.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "stache/stache.hh"
#include "typhoon/typhoon_mem_system.hh"

namespace tt
{

// The packed copy word stores the mirror tag as a direct cast of
// AccessTag; both enums must stay numerically aligned.
static_assert(static_cast<int>(AccessTag::Invalid) == 0 &&
                  static_cast<int>(AccessTag::ReadOnly) == 1 &&
                  static_cast<int>(AccessTag::ReadWrite) == 2 &&
                  static_cast<int>(AccessTag::Busy) == 3,
              "AccessTag numbering must match ProtocolChecker::Copy");

namespace
{

const char*
tagTrace(AccessTag t)
{
    switch (t) {
    case AccessTag::Invalid: return "tag:Invalid";
    case AccessTag::ReadOnly: return "tag:ReadOnly";
    case AccessTag::ReadWrite: return "tag:ReadWrite";
    case AccessTag::Busy: return "tag:Busy";
    }
    return "tag:?";
}

NodeId
lowestBit(std::uint64_t bits)
{
    return static_cast<NodeId>(__builtin_ctzll(bits));
}

} // namespace

ProtocolChecker::ProtocolChecker(Machine& m, Mode mode)
    : _m(m),
      _mode(mode),
      _nodes(m.params().nodes),
      _blockSize(m.params().blockSize),
      _pageSize(m.params().pageSize),
      _blkShift(log2i(m.params().blockSize)),
      _statAudits(&m.stats().counter("obs.check.audits")),
      _statLazyCmps(&m.stats().counter("obs.check.lazy_cmps")),
      _statEpochWraps(&m.stats().counter("obs.check.epoch_wraps"))
{
    tt_assert(_nodes > 0 && _nodes < 0xffff,
              "checker copy-word writer field needs nodes in [1, 65534]"
              ", got ",
              _nodes);
    _trace.reserve(kTraceCap);
    if (_mode == Mode::Fast) {
        _copy.resize(static_cast<std::size_t>(_nodes));
        _epoch.assign(static_cast<std::size_t>(_nodes), 0);
    }
}

void
ProtocolChecker::attachTyphoon(TyphoonMemSystem& ms, Stache& protocol)
{
    tt_assert(!_tms && !_dms,
              "checker already attached to a memory system; one "
              "ProtocolChecker instance validates exactly one target");
    _tms = &ms;
    _stache = &protocol;
}

void
ProtocolChecker::attachDirnnb(DirMemSystem& ms)
{
    tt_assert(!_tms && !_dms,
              "checker already attached to a memory system; one "
              "ProtocolChecker instance validates exactly one target");
    _dms = &ms;
}

// --------------------------------------------------------------------
// Bookkeeping
// --------------------------------------------------------------------

void
ProtocolChecker::trace(NodeId n, Addr blk, const char* what)
{
    TraceRec rec{_m.eq().now(), n, blk, what};
    if (_trace.size() < kTraceCap) {
        _trace.push_back(rec);
    } else {
        _trace[_traceHead] = rec;
        _traceHead = (_traceHead + 1) % kTraceCap;
    }
}

void
ProtocolChecker::markDirty(Addr blk)
{
    if (_dirtySet.insert(blk).second)
        _dirty.push_back(blk);
}

void
ProtocolChecker::markPageDirty(Addr pageVa)
{
    const Addr base = alignDown(pageVa, _pageSize);
    for (Addr b = base; b < base + _pageSize; b += _blockSize) {
        _seenBlocks.insert(b);
        markDirty(b);
    }
}

bool
ProtocolChecker::inflight(Addr blk) const
{
    auto it = _inflightByBlk.find(blk);
    return it != _inflightByBlk.end() && it->second > 0;
}

void
ProtocolChecker::report_(const char* invariant, Addr blk, NodeId node,
                         std::string detail)
{
    std::string key = std::string(invariant) + ":" + std::to_string(blk);
    if (!_violationKeys.insert(std::move(key)).second)
        return;
    if (_violations.size() >= kMaxViolations)
        return;
    _violations.push_back(
        Violation{invariant, blk, node, _m.eq().now(), std::move(detail)});
}

// --------------------------------------------------------------------
// Shadow memory (two-level table, both modes)
// --------------------------------------------------------------------

void
ProtocolChecker::shadowWrite(Addr va, const void* bytes, std::size_t len)
{
    const auto* src = static_cast<const std::uint8_t*>(bytes);
    while (len) {
        shadow::DataLeaf& leaf =
            _data.getWritable(va >> shadow::DataLeaf::kBytesLog2);
        const std::uint64_t off = va & (shadow::DataLeaf::kBytes - 1);
        const std::size_t n = std::min<std::size_t>(
            len, shadow::DataLeaf::kBytes - off);
        std::memcpy(leaf.data.data() + off, src, n);
        for (std::size_t i = 0; i < n; ++i)
            leaf.setValid(off + i);
        va += n;
        src += n;
        len -= n;
    }
}

bool
ProtocolChecker::shadowCheck(NodeId n, Addr va, const void* bytes,
                             std::size_t len)
{
    const auto* got = static_cast<const std::uint8_t*>(bytes);
    for (std::size_t i = 0; i < len; ++i) {
        const Addr a = va + i;
        const shadow::DataLeaf& leaf =
            _data.get(a >> shadow::DataLeaf::kBytesLog2);
        const std::uint64_t off = a & (shadow::DataLeaf::kBytes - 1);
        if (!leaf.validAt(off))
            continue;
        if (got[i] != leaf.data[off]) {
            std::ostringstream os;
            os << "read at node " << n << " va 0x" << std::hex << va
               << std::dec << " byte " << i << " returned "
               << int(got[i]) << ", last coherent write was "
               << int(leaf.data[off]);
            report_("value", blockAlign(va, _blockSize), n, os.str());
            return true;
        }
    }
    return false;
}

// --------------------------------------------------------------------
// Hooks
// --------------------------------------------------------------------

void
ProtocolChecker::onTagChange(NodeId n, Addr blk, AccessTag t)
{
    if (_mode == Mode::Fast) {
        fastTag(n, blk, static_cast<Copy>(t), tagTrace(t));
        return;
    }
    _seenBlocks.insert(blk);
    trace(n, blk, tagTrace(t));
    markDirty(blk);
}

void
ProtocolChecker::onPageTags(NodeId n, Addr pageVa, AccessTag t)
{
    trace(n, alignDown(pageVa, _pageSize), tagTrace(t));
    if (_mode == Mode::Fast) {
        const Addr base = alignDown(pageVa, _pageSize);
        for (Addr b = base; b < base + _pageSize; b += _blockSize)
            fastTag(n, b, static_cast<Copy>(t), nullptr);
        return;
    }
    markPageDirty(pageVa);
}

void
ProtocolChecker::onPageMap(NodeId n, Addr pageVa, std::uint8_t mode)
{
    // Custom-protocol pages (mode >= 3, e.g. EM3D delayed update) keep
    // consumer copies stale by design: exempt from coherence checking.
    const Addr base = alignDown(pageVa, _pageSize);
    if (mode >= 3) {
        _exemptVpns.insert(pageVa / _pageSize);
        if (_mode == Mode::Fast)
            for (Addr b = base; b < base + _pageSize; b += _blockSize)
                metaRef(b >> _blkShift).flags |=
                    shadow::BlockMeta::kExempt;
    }
    trace(n, base, "page-map");
    if (_mode == Mode::Fast) {
        // A fresh mapping starts all-Invalid at this node.
        for (Addr b = base; b < base + _pageSize; b += _blockSize)
            fastTag(n, b, Copy::None, nullptr);
        return;
    }
    markPageDirty(pageVa);
}

void
ProtocolChecker::onPageUnmap(NodeId n, Addr pageVa)
{
    const Addr base = alignDown(pageVa, _pageSize);
    trace(n, base, "page-unmap");
    if (_mode == Mode::Fast) {
        for (Addr b = base; b < base + _pageSize; b += _blockSize)
            fastTag(n, b, Copy::None, nullptr);
        return;
    }
    markPageDirty(pageVa);
}

void
ProtocolChecker::onAccess(NodeId n, Addr va, unsigned size, bool isWrite,
                          const void* bytes)
{
    if (_mode == Mode::Fast) {
        fastAccess(n, va, size, isWrite, bytes);
        return;
    }
    const Addr blk = blockAlign(va, _blockSize);
    if (exempt(blk))
        return;
    if (_tms) {
        // Table 1 semantics: the completing access must be backed by a
        // sufficient tag, live at completion time.
        const Copy c = copyState(n, blk);
        const bool ok = isWrite ? c == Copy::Excl
                                : (c == Copy::Excl || c == Copy::Shared);
        if (!ok) {
            std::ostringstream os;
            os << (isWrite ? "write" : "read") << " at node " << n
               << " va 0x" << std::hex << va << std::dec
               << " completed without a sufficient access tag";
            report_("table1-tag", blk, n, os.str());
        }
    }
    if (isWrite) {
        _seenBlocks.insert(blk);
        trace(n, blk, "write");
        markDirty(blk);
        shadowWrite(va, bytes, size);
    } else {
        shadowCheck(n, va, bytes, size);
    }
}

void
ProtocolChecker::onBackdoorWrite(Addr va, const void* bytes,
                                 std::size_t len)
{
    shadowWrite(va, bytes, len);
    if (_mode == Mode::Fast) {
        // Restamp every covered block so previously validated words
        // go stale and the next read re-verifies against the shadow.
        const Addr first = blockAlign(va, _blockSize);
        for (Addr b = first; b < va + len; b += _blockSize)
            fastBumpStamp(metaRef(b >> _blkShift));
    }
}

void
ProtocolChecker::onBlockEvent(NodeId n, Addr blk, const char* what)
{
    if (_mode == Mode::Fast) {
        shadow::BlockMeta& m = metaRef(blk >> _blkShift);
        m.flags |= shadow::BlockMeta::kSeen;
        trace(n, blk, what);
        fastBumpStamp(m);
        fastMarkDirty(blk, m);
        return;
    }
    _seenBlocks.insert(blk);
    trace(n, blk, what);
    markDirty(blk);
}

void
ProtocolChecker::onMsgSend(const Message& m)
{
    ++_inflightTotal;
    if (m.args.size() < 2)
        return;
    const Addr blk = blockAlign(m.addrArg(0), _blockSize);
    ++_inflightByBlk[blk];
    if (_mode == Mode::Fast) {
        const shadow::BlockMeta& bm = metaOf(blk >> _blkShift);
        if (bm.flags & shadow::BlockMeta::kSeen) {
            trace(m.src, blk, "msg-send");
            fastMarkDirty(blk, metaRef(blk >> _blkShift));
        }
        return;
    }
    if (_seenBlocks.count(blk)) {
        trace(m.src, blk, "msg-send");
        markDirty(blk);
    }
}

void
ProtocolChecker::onMsgDeliver(const Message& m)
{
    --_inflightTotal;
    if (m.args.size() < 2)
        return;
    const Addr blk = blockAlign(m.addrArg(0), _blockSize);
    auto it = _inflightByBlk.find(blk);
    if (it != _inflightByBlk.end() && --it->second == 0)
        _inflightByBlk.erase(it);
    if (_mode == Mode::Fast) {
        shadow::BlockMeta& bm = metaRef(blk >> _blkShift);
        if (bm.flags & shadow::BlockMeta::kSeen) {
            trace(m.dst, blk, "msg-deliver");
            // The handler about to run may move block data around
            // without a coherent write; invalidate read-freshness.
            fastBumpStamp(bm);
            fastMarkDirty(blk, bm);
        }
        return;
    }
    if (_seenBlocks.count(blk)) {
        trace(m.dst, blk, "msg-deliver");
        markDirty(blk);
    }
}

void
ProtocolChecker::onEventEnd()
{
    ++_eventsChecked;
    if (_mode == Mode::Fast) {
        if (!_lazyCmp.empty()) {
            for (const auto& [n, blk] : _lazyCmp) {
                if (!(metaOf(blk >> _blkShift).flags &
                      shadow::BlockMeta::kExempt)) {
                    _statLazyCmps->inc();
                    fastCompareBlock(n, blk);
                }
            }
            _lazyCmp.clear();
        }
        for (Addr blk : _dirty) {
            shadow::BlockMeta& m = metaRef(blk >> _blkShift);
            m.flags &= static_cast<std::uint8_t>(
                ~shadow::BlockMeta::kDirty);
            if (m.flags & shadow::BlockMeta::kExempt)
                continue;
            _statAudits->inc();
            fastCheckBlock(blk, m);
        }
        _dirty.clear();
        return;
    }
    for (Addr blk : _dirty) {
        _statAudits->inc();
        checkBlock(blk);
    }
    _dirty.clear();
    _dirtySet.clear();
}

// --------------------------------------------------------------------
// Fast engine (DESIGN.md §13)
// --------------------------------------------------------------------

void
ProtocolChecker::fastMarkDirty(Addr blk, shadow::BlockMeta& m)
{
    if (!(m.flags & shadow::BlockMeta::kDirty)) {
        m.flags |= shadow::BlockMeta::kDirty;
        _dirty.push_back(blk);
    }
}

void
ProtocolChecker::fastBumpStamp(shadow::BlockMeta& m)
{
    ++_auxEpoch;
    if (shadow::epochWrapped(_auxEpoch))
        clearAllValidated();
    m.stamp = shadow::packStamp(shadow::kAuxWriter, _auxEpoch);
}

void
ProtocolChecker::clearAllValidated()
{
    _statEpochWraps->inc();
    for (auto& t : _copy)
        shadow::clearValidated(t);
}

void
ProtocolChecker::fastTag(NodeId n, Addr blk, Copy c, const char* what)
{
    const std::uint64_t bi = blk >> _blkShift;
    const std::uint64_t old = copyWord(n, bi);
    const Copy oc = static_cast<Copy>(shadow::tagOf(old));
    if (oc == Copy::None && c == Copy::None && !shadow::validated(old))
        return; // untouched slot stays untouched (page-granular sweeps)

    // Any copy-state transition invalidates the node's read freshness
    // (the underlying bytes may be about to change hands).
    copyWordRef(n, bi) = (old & shadow::kStampMask) |
                         static_cast<std::uint64_t>(c);

    shadow::BlockMeta& m = metaRef(bi);
    m.flags |= shadow::BlockMeta::kSeen;
    if (oc != c) {
        const std::uint64_t bit = n < 64 ? (1ull << n) : 0;
        switch (oc) {
        case Copy::Shared:
            --m.sharedCnt;
            m.sharedBits &= ~bit;
            break;
        case Copy::Excl:
            --m.exclCnt;
            m.exclBits &= ~bit;
            break;
        default: break;
        }
        switch (c) {
        case Copy::Shared:
            ++m.sharedCnt;
            m.sharedBits |= bit;
            break;
        case Copy::Excl:
            ++m.exclCnt;
            m.exclBits |= bit;
            break;
        default: break;
        }
    }
    if (what)
        trace(n, blk, what);
    fastMarkDirty(blk, m);

    if (_tms) {
        // Laziness rule: byte-granular value comparison happens on
        // copy-state transitions, not per access.  A grant may have
        // delivered stale bytes; a writable copy being taken away is
        // the last moment its bytes are authoritative.
        const bool grant = (oc == Copy::None || oc == Copy::Busy) &&
                           (c == Copy::Shared || c == Copy::Excl);
        const bool rwExit = oc == Copy::Excl && c != Copy::Excl;
        if (grant || rwExit)
            _lazyCmp.emplace_back(n, blk);
    }
}

void
ProtocolChecker::fastAccess(NodeId n, Addr va, unsigned size,
                            bool isWrite, const void* bytes)
{
    const Addr blk = blockAlign(va, _blockSize);
    const std::uint64_t bi = blk >> _blkShift;
    const shadow::BlockMeta& bm = metaOf(bi);
    if (bm.flags & shadow::BlockMeta::kExempt)
        return;
    if (_tms) {
        // Table 1 semantics, via the mirror (mirror == reality: every
        // tag-store mutation fires onTagChange before the access
        // completes).
        const unsigned c = shadow::tagOf(copyWord(n, bi));
        const bool ok =
            isWrite ? c == static_cast<unsigned>(Copy::Excl)
                    : (c == static_cast<unsigned>(Copy::Excl) ||
                       c == static_cast<unsigned>(Copy::Shared));
        if (!ok) {
            std::ostringstream os;
            os << (isWrite ? "write" : "read") << " at node " << n
               << " va 0x" << std::hex << va << std::dec
               << " completed without a sufficient access tag";
            report_("table1-tag", blk, n, os.str());
        }
    }
    if (!isWrite) {
        const std::uint64_t w = copyWord(n, bi);
        if (shadow::validated(w) && shadow::stampOf(w) == bm.stamp)
            return; // O(1): this node's view is provably fresh
        fastValidateBlock(n, blk, bm.stamp, va, bytes, size);
        return;
    }

    std::uint64_t& epoch = _epoch[static_cast<std::size_t>(n)];
    ++epoch;
    if (shadow::epochWrapped(epoch))
        clearAllValidated();
    const std::uint64_t stamp =
        shadow::packStamp(static_cast<std::uint32_t>(n) + 1, epoch);
    shadow::BlockMeta& m = metaRef(bi);
    std::uint64_t& w = copyWordRef(n, bi);
    // The writer stays validated across its own write iff it was
    // validated at the previous stamp: memory and shadow receive the
    // same bytes, so a verified view stays verified.
    const bool carry =
        shadow::validated(w) && shadow::stampOf(w) == m.stamp;
    m.stamp = stamp;
    w = (w & shadow::kTagMask) | stamp |
        (carry ? shadow::kValidatedMask : 0);
    m.flags |= shadow::BlockMeta::kSeen;
    fastMarkDirty(blk, m);
    trace(n, blk, "write");
    shadowWrite(va, bytes, size);
}

int
ProtocolChecker::blockVsShadow(NodeId n, Addr blk)
{
    std::uint8_t buf[256];
    if (!_tms || _blockSize > sizeof(buf) ||
        !readNodeBlock(n, blk, buf))
        return -1;
    const shadow::DataLeaf& leaf =
        _data.get(blk >> shadow::DataLeaf::kBytesLog2);
    const std::uint64_t off = blk & (shadow::DataLeaf::kBytes - 1);
    for (std::uint32_t i = 0; i < _blockSize; ++i) {
        if (!leaf.validAt(off + i))
            continue;
        if (buf[i] != leaf.data[off + i]) {
            std::ostringstream os;
            os << "copy at node " << n << " block 0x" << std::hex << blk
               << std::dec << " byte " << i << " holds " << int(buf[i])
               << ", last coherent write was " << int(leaf.data[off + i]);
            report_("value", blk, n, os.str());
            return 1;
        }
    }
    return 0;
}

void
ProtocolChecker::fastValidateBlock(NodeId n, Addr blk,
                                   std::uint64_t stamp, Addr va,
                                   const void* bytes, unsigned size)
{
    // Prefer whole-block verification (Typhoon: the node's memory is
    // directly readable) so the validated bit means "this node's
    // entire view matches the shadow", not just the sampled bytes.
    const int r = blockVsShadow(n, blk);
    if (r == 1)
        return; // mismatch reported; do not validate
    if (r < 0 && shadowCheck(n, va, bytes, size))
        return; // fallback compared the access bytes only
    std::uint64_t& w = copyWordRef(n, blk >> _blkShift);
    w = (w & ~shadow::kStampMask) | stamp | shadow::kValidatedMask;
}

void
ProtocolChecker::fastCompareBlock(NodeId n, Addr blk)
{
    blockVsShadow(n, blk);
}

void
ProtocolChecker::fastCheckBlock(Addr blk, shadow::BlockMeta& m)
{
    // SWMR in O(1): mirror population counts. The reality rescan only
    // runs to name the offending nodes in the report.
    if (m.exclCnt >= 2 || (m.exclCnt == 1 && m.sharedCnt >= 1))
        checkSwmr(blk);
    if (_tms)
        fastStacheAudit(blk, m);
    else
        fastDirnnbAudit(blk, m);
}

void
ProtocolChecker::fastStacheAudit(Addr blk, const shadow::BlockMeta& m)
{
    const Stache::BlockPeek p = _stache->peekEntry(blk);
    if (p.busy || inflight(blk))
        return;
    if (!p.entry || _nodes > 64) {
        checkStacheAgreement(blk);
        return;
    }
    const NodeId home = _stache->homeOf(blk);
    const std::uint64_t hb = 1ull << home;
    bool clean = false;
    switch (p.state) {
    case StacheDirEntry::State::Idle:
        clean = m.exclBits == hb && m.sharedBits == 0;
        break;
    case StacheDirEntry::State::Shared: {
        clean = (m.sharedBits & hb) != 0 && m.exclBits == 0;
        std::uint64_t rest = m.sharedBits & ~hb;
        while (clean && rest) {
            const NodeId n = lowestBit(rest);
            rest &= rest - 1;
            if (!p.entry->contains(n, *p.aux))
                clean = false;
        }
        break;
    }
    case StacheDirEntry::State::Excl: {
        if (p.owner < 0 || p.owner >= _nodes)
            break;
        const std::uint64_t bi = blk >> _blkShift;
        const unsigned ht = shadow::tagOf(copyWord(home, bi));
        const unsigned ot = shadow::tagOf(copyWord(p.owner, bi));
        const std::uint64_t ob = 1ull << p.owner;
        clean = ht == static_cast<unsigned>(Copy::None) &&
                (ot == static_cast<unsigned>(Copy::Excl) ||
                 ot == static_cast<unsigned>(Copy::Busy)) &&
                m.sharedBits == 0 && (m.exclBits & ~ob) == 0;
        break;
    }
    }
    if (!clean)
        checkStacheAgreement(blk); // reality rescan names the offender
}

void
ProtocolChecker::fastDirnnbAudit(Addr blk, const shadow::BlockMeta& m)
{
    const DirMemSystem::EntryPeek p = _dms->peekEntry(blk);
    if (p.busy || inflight(blk))
        return;
    if (_nodes > 64) {
        checkDirnnbAgreement(blk);
        return;
    }
    const NodeId home = _dms->homeOf(blk);
    const std::uint64_t hb = 1ull << home;
    bool clean = false;
    switch (p.state) {
    case DirMemSystem::DirState::Idle:
        // Home copies are not directory-tracked; remotes must be gone.
        clean = ((m.sharedBits | m.exclBits) & ~hb) == 0;
        break;
    case DirMemSystem::DirState::Shared: {
        clean = m.exclBits == 0;
        std::uint64_t rest = m.sharedBits & ~hb;
        while (clean && rest) {
            const NodeId n = lowestBit(rest);
            rest &= rest - 1;
            if (!p.sharers || !p.sharers->contains(n))
                clean = false;
        }
        break;
    }
    case DirMemSystem::DirState::Excl: {
        if (p.owner < 0 || p.owner >= _nodes || p.owner == home)
            break;
        const std::uint64_t ob = 1ull << p.owner;
        clean = ((m.sharedBits | m.exclBits) & hb) == 0 &&
                m.exclBits == ob && m.sharedBits == 0;
        break;
    }
    }
    if (!clean)
        checkDirnnbAgreement(blk);
}

// --------------------------------------------------------------------
// Invariants (paranoid engine; also the fast mode's reporting slow
// path — the mirror only decides *whether* to rescan reality)
// --------------------------------------------------------------------

ProtocolChecker::Copy
ProtocolChecker::copyState(NodeId n, Addr blk) const
{
    if (_tms) {
        const PageMapping* m = _tms->pageTableOf(n).lookup(blk);
        if (!m)
            return Copy::None;
        switch (_tms->tagOf(n, blk)) {
        case AccessTag::Invalid: return Copy::None;
        case AccessTag::ReadOnly: return Copy::Shared;
        case AccessTag::ReadWrite: return Copy::Excl;
        case AccessTag::Busy: return Copy::Busy;
        }
        return Copy::None;
    }
    CacheModel& c = _dms->cacheOf(n);
    if (!c.present(blk))
        return Copy::None;
    return c.presentShared(blk) ? Copy::Shared : Copy::Excl;
}

bool
ProtocolChecker::readNodeBlock(NodeId n, Addr blk, std::uint8_t* out) const
{
    const PageMapping* m = _tms->pageTableOf(n).lookup(blk);
    if (!m)
        return false;
    _tms->physOf(n).read(m->ppage + blk % _pageSize, out, _blockSize);
    return true;
}

void
ProtocolChecker::checkBlock(Addr blk)
{
    if (exempt(blk))
        return;
    checkSwmr(blk);
    if (_tms)
        checkStacheAgreement(blk);
    else
        checkDirnnbAgreement(blk);
}

void
ProtocolChecker::checkSwmr(Addr blk)
{
    // Unconditional: holds even mid-transaction.  A block's data may
    // be in flight (nobody holds it), but two writable copies — or a
    // readable copy next to a writer — are never legal.
    NodeId writer = kNoNode;
    for (NodeId n = 0; n < _nodes; ++n) {
        if (copyState(n, blk) != Copy::Excl)
            continue;
        if (writer != kNoNode) {
            std::ostringstream os;
            os << "two writable copies: nodes " << writer << " and "
               << n;
            report_("swmr", blk, n, os.str());
            return;
        }
        writer = n;
    }
    if (writer == kNoNode)
        return;
    for (NodeId n = 0; n < _nodes; ++n) {
        if (n != writer && copyState(n, blk) == Copy::Shared) {
            std::ostringstream os;
            os << "readable copy at node " << n
               << " coexists with writer at node " << writer;
            report_("swmr", blk, n, os.str());
            return;
        }
    }
}

void
ProtocolChecker::checkStacheAgreement(Addr blk)
{
    // Documented slack the protocol is allowed (PROTOCOLS.md): stale
    // sharer pointers after silent clean-copy drops, Busy tags while
    // a block fault is pending, and anything with a live transient or
    // an in-flight message referencing the block.
    const Stache::BlockView v = _stache->inspect(blk);
    if (v.busy || inflight(blk))
        return;
    const NodeId home = _stache->homeOf(blk);
    const auto listed = [&](NodeId n) {
        return std::find(v.sharers.begin(), v.sharers.end(), n) !=
               v.sharers.end();
    };

    switch (v.state) {
    case StacheDirEntry::State::Idle:
        if (copyState(home, blk) != Copy::Excl)
            report_("dir-agreement", blk, home,
                    "directory Idle but home copy is not writable");
        for (NodeId n = 0; n < _nodes; ++n) {
            const Copy c = copyState(n, blk);
            if (n != home && (c == Copy::Shared || c == Copy::Excl)) {
                std::ostringstream os;
                os << "directory Idle but node " << n
                   << " holds a copy";
                report_("dir-agreement", blk, n, os.str());
            }
        }
        break;

    case StacheDirEntry::State::Shared: {
        if (copyState(home, blk) != Copy::Shared)
            report_("dir-agreement", blk, home,
                    "directory Shared but home copy is not read-only");
        std::uint8_t homeData[256];
        std::uint8_t nodeData[256];
        const bool haveHome =
            _blockSize <= sizeof(homeData) &&
            readNodeBlock(home, blk, homeData);
        for (NodeId n = 0; n < _nodes; ++n) {
            if (n == home)
                continue;
            const Copy c = copyState(n, blk);
            if (c == Copy::Excl) {
                std::ostringstream os;
                os << "directory Shared but node " << n
                   << " holds a writable copy";
                report_("dir-agreement", blk, n, os.str());
            } else if (c == Copy::Shared) {
                if (!listed(n)) {
                    std::ostringstream os;
                    os << "readable copy at node " << n
                       << " missing from the sharer set";
                    report_("dir-agreement", blk, n, os.str());
                } else if (haveHome &&
                           readNodeBlock(n, blk, nodeData) &&
                           std::memcmp(homeData, nodeData,
                                       _blockSize) != 0) {
                    std::ostringstream os;
                    os << "read-only copy at node " << n
                       << " diverges from the home copy";
                    report_("value", blk, n, os.str());
                }
            }
            // Listed sharers with Invalid/Busy/unmapped copies are the
            // documented stale-pointer case (silent clean drops).
        }
        break;
    }

    case StacheDirEntry::State::Excl: {
        if (copyState(home, blk) != Copy::None)
            report_("dir-agreement", blk, home,
                    "directory Exclusive but the home still holds a copy");
        const Copy oc = copyState(v.owner, blk);
        if (oc != Copy::Excl && oc != Copy::Busy) {
            std::ostringstream os;
            os << "directory owner " << v.owner
               << " does not hold the writable copy";
            report_("dir-agreement", blk, v.owner, os.str());
        }
        for (NodeId n = 0; n < _nodes; ++n) {
            if (n == home || n == v.owner)
                continue;
            const Copy c = copyState(n, blk);
            if (c == Copy::Shared || c == Copy::Excl) {
                std::ostringstream os;
                os << "directory Exclusive (owner " << v.owner
                   << ") but node " << n << " holds a copy";
                report_("dir-agreement", blk, n, os.str());
            }
        }
        break;
    }
    }
}

void
ProtocolChecker::checkDirnnbAgreement(Addr blk)
{
    const DirMemSystem::EntryView v = _dms->inspect(blk);
    if (v.busy || inflight(blk))
        return;
    const NodeId home = _dms->homeOf(blk);
    const auto listed = [&](NodeId n) {
        return std::find(v.sharers.begin(), v.sharers.end(), n) !=
               v.sharers.end();
    };

    switch (v.state) {
    case DirMemSystem::DirState::Idle:
        // Home copies are not directory-tracked; remotes must be gone.
        for (NodeId n = 0; n < _nodes; ++n) {
            if (n != home && copyState(n, blk) != Copy::None) {
                std::ostringstream os;
                os << "directory Idle but node " << n
                   << " holds a cache line";
                report_("dir-agreement", blk, n, os.str());
            }
        }
        break;

    case DirMemSystem::DirState::Shared:
        if (copyState(home, blk) == Copy::Excl)
            report_("dir-agreement", blk, home,
                    "directory Shared but the home line is exclusive");
        for (NodeId n = 0; n < _nodes; ++n) {
            if (n == home)
                continue;
            const Copy c = copyState(n, blk);
            if (c == Copy::Excl) {
                std::ostringstream os;
                os << "directory Shared but node " << n
                   << " holds an exclusive line";
                report_("dir-agreement", blk, n, os.str());
            } else if (c == Copy::Shared && !listed(n)) {
                std::ostringstream os;
                os << "shared line at node " << n
                   << " missing from the sharer set";
                report_("dir-agreement", blk, n, os.str());
            }
        }
        break;

    case DirMemSystem::DirState::Excl:
        if (copyState(home, blk) != Copy::None)
            report_("dir-agreement", blk, home,
                    "directory Exclusive but the home still holds a line");
        if (copyState(v.owner, blk) != Copy::Excl) {
            std::ostringstream os;
            os << "directory owner " << v.owner
               << " does not hold the exclusive line";
            report_("dir-agreement", blk, v.owner, os.str());
        }
        for (NodeId n = 0; n < _nodes; ++n) {
            if (n == home || n == v.owner)
                continue;
            if (copyState(n, blk) != Copy::None) {
                std::ostringstream os;
                os << "directory Exclusive (owner " << v.owner
                   << ") but node " << n << " holds a line";
                report_("dir-agreement", blk, n, os.str());
            }
        }
        break;
    }
}

// --------------------------------------------------------------------
// End of run
// --------------------------------------------------------------------

void
ProtocolChecker::finalize()
{
    // Flush any state dirtied after the last protocol event.
    onEventEnd();
    --_eventsChecked; // the flush is not an event

    if (_inflightTotal != 0) {
        std::vector<Addr> blks;
        blks.reserve(_inflightByBlk.size());
        for (const auto& [b, c] : _inflightByBlk)
            if (c > 0)
                blks.push_back(b);
        std::sort(blks.begin(), blks.end());
        std::ostringstream os;
        os << _inflightTotal << " message(s) still in flight at end of run";
        if (!blks.empty()) {
            os << "; blocks:" << std::hex;
            for (std::size_t i = 0; i < blks.size() && i < 8; ++i)
                os << " 0x" << blks[i];
        }
        report_("message-conservation", blks.empty() ? 0 : blks[0],
                kNoNode, os.str());
    }

    const bool quiet = _tms ? (_stache->quiescent() && _tms->quiescent())
                            : _dms->quiescent();
    if (!quiet)
        report_("quiescence", 0, kNoNode,
                "open transactions at end of run: a request was never "
                "paired with its response");
}

void
ProtocolChecker::canonicalize()
{
    // Drop every shadow table and every piece of transient
    // bookkeeping. Violations and their dedup keys survive: a crash
    // recovery must not launder an already-detected bug.
    _data = {};
    _meta = {};
    for (ShadowTable<shadow::CopyLeaf>& t : _copy)
        t = {};
    std::fill(_epoch.begin(), _epoch.end(), 0);
    _auxEpoch = 0;
    _lazyCmp.clear();
    _seenBlocks.clear();
    _dirty.clear();
    _dirtySet.clear();
    _inflightByBlk.clear();
    _inflightTotal = 0;
    _trace.clear();
    _traceHead = 0;

    // Custom pages stay mapped across a canonicalize, so no fresh
    // onPageMap will re-announce their exemption: re-mark it here.
    if (_mode == Mode::Fast) {
        for (std::uint64_t vpn : _exemptVpns) {
            const Addr base = static_cast<Addr>(vpn) * _pageSize;
            for (Addr b = base; b < base + _pageSize; b += _blockSize)
                metaRef(b >> _blkShift).flags |=
                    shadow::BlockMeta::kExempt;
        }
    }

    // Canonical ownership picture. On Typhoon targets the memory
    // system leaves every non-exempt shared page ReadWrite at its
    // home — exactly what setup's tag announcements produced — so the
    // mirror shows the home holding each block exclusively. The
    // grants queued here compare against an all-invalid shadow and
    // are therefore silent until the caller's pokes refill it. On
    // DirNNB the caches are empty and the directory idle: the mirror
    // stays empty.
    if (_tms) {
        for (const MemorySystem::SharedRange& r : _tms->sharedAllocs()) {
            for (Addr p = alignDown(r.va, _pageSize);
                 p < r.va + r.bytes; p += _pageSize) {
                if (_exemptVpns.count(p / _pageSize) != 0)
                    continue;
                const NodeId home = _stache->homeOf(p);
                for (Addr b = p; b < p + _pageSize; b += _blockSize) {
                    if (_mode == Mode::Fast)
                        fastTag(home, b, Copy::Excl, nullptr);
                    else
                        _seenBlocks.insert(b);
                }
            }
        }
    }
}

std::size_t
ProtocolChecker::footprintBytes() const
{
    std::size_t b = 0;
    b += _data.leavesMaterialized() * sizeof(shadow::DataLeaf);
    b += _meta.leavesMaterialized() * sizeof(shadow::MetaLeaf);
    for (const auto& t : _copy)
        b += t.leavesMaterialized() * sizeof(shadow::CopyLeaf);
    b += _copy.capacity() * sizeof(ShadowTable<shadow::CopyLeaf>);
    b += _epoch.capacity() * sizeof(std::uint64_t);
    b += _lazyCmp.capacity() * sizeof(std::pair<NodeId, Addr>);
    b += _trace.capacity() * sizeof(TraceRec);
    b += _dirty.capacity() * sizeof(Addr);
    b += _dirtySet.size() * sizeof(Addr);
    b += _seenBlocks.size() * sizeof(Addr);
    b += _exemptVpns.size() * sizeof(std::uint64_t);
    b += _inflightByBlk.size() * (sizeof(Addr) + sizeof(int));
    return b;
}

std::string
ProtocolChecker::report() const
{
    std::ostringstream os;
    if (_violations.empty()) {
        os << "coherence-check: PASS (0 violations, " << _eventsChecked
           << " events checked)\n";
        return os.str();
    }
    os << "coherence-check: FAIL (" << _violations.size()
       << " violation(s), " << _eventsChecked << " events checked)\n";
    os << "  seed: " << _seed << "\n";
    const Violation& v = _violations.front();
    os << "  first: invariant=" << v.invariant << " block=0x" << std::hex
       << v.blk << std::dec << " node=" << v.node << " tick=" << v.tick
       << "\n";
    os << "    " << v.detail << "\n";
    os << "  trace for block 0x" << std::hex << v.blk << std::dec
       << ":\n";
    // Ring in chronological order; keep the last few records that
    // mention the violating block.
    std::vector<const TraceRec*> hits;
    const std::size_t sz = _trace.size();
    for (std::size_t i = 0; i < sz; ++i) {
        const TraceRec& r =
            _trace[(_traceHead + i) % (sz < kTraceCap ? sz : kTraceCap)];
        if (r.blk == v.blk)
            hits.push_back(&r);
    }
    const std::size_t keep = 24;
    const std::size_t start = hits.size() > keep ? hits.size() - keep : 0;
    for (std::size_t i = start; i < hits.size(); ++i)
        os << "    [" << hits[i]->tick << "] node " << hits[i]->node
           << " " << hits[i]->what << "\n";
    for (std::size_t i = 1; i < _violations.size(); ++i) {
        const Violation& w = _violations[i];
        os << "  also: invariant=" << w.invariant << " block=0x"
           << std::hex << w.blk << std::dec << " node=" << w.node
           << " tick=" << w.tick << " — " << w.detail << "\n";
    }
    return os.str();
}

} // namespace tt
