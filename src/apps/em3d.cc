#include "apps/em3d.hh"

#include "sim/random.hh"

namespace tt
{

void
Em3dApp::setup(Machine& m)
{
    _machine = &m;
    MemorySystem& ms = m.memsys();
    const int P = m.nodes();
    // Every node owns a share of both halves of the graph; the
    // neighbor draw below needs each share to be non-empty.
    if (P > _p.nNodes / 2)
        tt_fatal("em3d: ", P, " nodes exceed the data set's limit of "
                 "nNodes/2 = ", _p.nNodes / 2, " nodes");
    _nE = _p.nNodes / 2;
    _nH = _p.nNodes - _nE;

    auto alloc = [&](std::size_t bytes, int owner) -> Addr {
        if (_mode == Mode::Update) {
            // Graph values live on custom home pages at their owner.
            return _proto->allocCustom(
                bytes, owner,
                /*kind set per array by the caller below*/
                _allocKind);
        }
        // Transparent: default round-robin page placement, exactly as
        // the paper's unmodified shared-memory programs.
        (void)owner;
        return ms.shmalloc(bytes, kNoNode);
    };

    _allocKind = Em3dUpdateProtocol::kE;
    _eVal = ChunkedArray<double>(_nE, P, alloc);
    _allocKind = Em3dUpdateProtocol::kH;
    _hVal = ChunkedArray<double>(_nH, P, alloc);

    // Weights: shared, read-only after setup. Under the update
    // protocol they still go through plain Stache (they are never
    // written, so transparent caching is already optimal).
    auto allocW = [&](std::size_t bytes, int) -> Addr {
        return ms.shmalloc(bytes, kNoNode);
    };
    _eW = ChunkedArray<double>(
        static_cast<std::size_t>(_nE) * _p.degree, P, allocW);
    _hW = ChunkedArray<double>(
        static_cast<std::size_t>(_nH) * _p.degree, P, allocW);

    // Build the bipartite graph: each E node has `degree` H-node
    // neighbors (and vice versa); a neighbor is remote with
    // probability remoteFrac, drawn from a uniformly random other
    // processor's range — the Figure 4 knob.
    Rng rng(_p.seed);
    auto build = [&](int n_src, int n_dst,
                     std::vector<std::uint32_t>& adj,
                     const ChunkedArray<double>& w) {
        adj.resize(static_cast<std::size_t>(n_src) * _p.degree);
        for (int i = 0; i < n_src; ++i) {
            const int owner = ownerOf(i, n_src, P);
            for (int d = 0; d < _p.degree; ++d) {
                int dst_owner = owner;
                if (P > 1 && rng.uniform() < _p.remoteFrac) {
                    dst_owner = static_cast<int>(rng.below(P - 1));
                    if (dst_owner >= owner)
                        ++dst_owner;
                }
                const IndexRange r = blockRange(n_dst, P, dst_owner);
                tt_assert(r.size() > 0, "empty neighbor range");
                adj[i * _p.degree + d] = static_cast<std::uint32_t>(
                    r.begin + rng.below(r.size()));
                w.poke(ms, i * _p.degree + d,
                       0.05 + 0.9 * rng.uniform() / _p.degree);
            }
        }
    };
    build(_nE, _nH, _eAdj, _eW);
    build(_nH, _nE, _hAdj, _hW);

    for (int i = 0; i < _nE; ++i)
        _eVal.poke(ms, i, 1.0 + 0.001 * (i % 997));
    for (int i = 0; i < _nH; ++i)
        _hVal.poke(ms, i, 2.0 - 0.001 * (i % 991));
}

Task<void>
Em3dApp::halfStep(Cpu& cpu, bool e_phase)
{
    const int P = _machine->nodes();
    const int nSrc = e_phase ? _nE : _nH;
    const ChunkedArray<double>& src = e_phase ? _eVal : _hVal;
    const ChunkedArray<double>& nbr = e_phase ? _hVal : _eVal;
    const std::vector<std::uint32_t>& adj = e_phase ? _eAdj : _hAdj;
    const ChunkedArray<double>& w = e_phase ? _eW : _hW;

    const IndexRange r = blockRange(nSrc, P, cpu.id());
    for (std::size_t i = r.begin; i < r.end; ++i) {
        double sum = 0;
        for (int d = 0; d < _p.degree; ++d) {
            const std::size_t e = i * _p.degree + d;
            const double nv = co_await nbr.get(cpu, adj[e]);
            const double we = co_await w.get(cpu, e);
            sum += we * nv;
            cpu.advance(3); // index arithmetic, multiply-add
        }
        const double v = co_await src.get(cpu, i);
        co_await src.put(cpu, i, v - sum);
        cpu.advance(3); // subtract, store bookkeeping, loop
    }

    if (_mode == Mode::Update) {
        co_await _proto->endStep(
            cpu, e_phase ? Em3dUpdateProtocol::kE
                         : Em3dUpdateProtocol::kH);
    }
    co_await _machine->barrier().wait(cpu);
}

Task<void>
Em3dApp::body(Cpu& cpu)
{
    for (int it = _startIt; it < _p.iterations; ++it) {
        if (!(_skipE && it == _startIt))
            co_await halfStep(cpu, /*e_phase=*/true);
        co_await halfStep(cpu, /*e_phase=*/false);
    }
}

void
Em3dApp::finish(Machine& m)
{
    MemorySystem& ms = m.memsys();
    double sum = 0;
    for (int i = 0; i < _nE; ++i)
        sum += _eVal.peek(ms, i);
    for (int i = 0; i < _nH; ++i)
        sum += _hVal.peek(ms, i);
    _checksum = sum;
}

} // namespace tt
