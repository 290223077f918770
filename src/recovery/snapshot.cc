#include "recovery/snapshot.hh"

#include <fstream>

#include "core/memsys.hh"
#include "sim/logging.hh"

namespace tt
{

std::uint64_t
configFingerprint(const std::string& key)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : key) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

void
captureMem(MemorySystem& ms, Snapshot& s, bool coherent)
{
    s.mem.clear();
    for (const MemorySystem::SharedRange& r : ms.sharedAllocs()) {
        Snapshot::MemRange mr;
        mr.va = r.va;
        mr.bytes.resize(r.bytes);
        if (coherent)
            ms.coherentPeek(r.va, mr.bytes.data(), r.bytes);
        else
            ms.peek(r.va, mr.bytes.data(), r.bytes);
        s.mem.push_back(std::move(mr));
    }
}

void
pokeMem(MemorySystem& ms, const Snapshot& s)
{
    for (const Snapshot::MemRange& mr : s.mem)
        ms.poke(mr.va, mr.bytes.data(), mr.bytes.size());
}

void
captureStats(const StatSet& stats, Snapshot& s)
{
    s.counters.clear();
    for (const auto& [name, c] : stats.counters())
        s.counters.emplace_back(name, c.value());
}

void
restoreStats(StatSet& stats, const Snapshot& s)
{
    // Counters are created on first use, so the restored run may not
    // have materialized all of them yet; operator[] inserts those.
    for (const auto& [name, v] : s.counters)
        stats.mutableCounters()[name].set(v);
}

// --------------------------------------------------------------------
// File format
// --------------------------------------------------------------------

namespace
{

constexpr char kMagic[8] = {'T', 'T', 'C', 'K', 'P', 'T', '2', '\0'};

void
putU64(std::ostream& os, std::uint64_t v)
{
    os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void
putStr(std::ostream& os, const std::string& s)
{
    putU64(os, s.size());
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/**
 * Checkpoint input bounded by the bytes left in the file: a corrupt
 * or truncated length prefix is a tt_fatal before anything is sized
 * from it, never a huge allocation.
 */
class Reader
{
  public:
    Reader(std::istream& is, std::uint64_t size, const std::string& path)
        : _is(is), _left(size), _path(path)
    {
    }

    void
    read(void* dst, std::uint64_t n)
    {
        if (n > _left)
            tt_fatal("truncated checkpoint file '", _path, "'");
        _is.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
        if (!_is)
            tt_fatal("cannot read checkpoint file '", _path, "'");
        _left -= n;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        read(&v, sizeof v);
        return v;
    }

    /** A length prefix counting elements of at least @p elemBytes. */
    std::uint64_t
    count(std::uint64_t elemBytes)
    {
        const std::uint64_t n = u64();
        if (n > _left / elemBytes)
            tt_fatal("corrupt checkpoint file '", _path, "': length ", n,
                     " exceeds the ", _left, " bytes left");
        return n;
    }

    std::string
    str()
    {
        std::string s(count(1), '\0');
        read(s.data(), s.size());
        return s;
    }

  private:
    std::istream& _is;
    std::uint64_t _left;
    const std::string& _path;
};

} // namespace

void
saveSnapshot(const Snapshot& s, const std::string& path)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        tt_fatal("cannot write checkpoint file '", path, "'");
    os.write(kMagic, sizeof kMagic);
    putU64(os, s.fingerprint);
    putU64(os, s.episodes);
    putU64(os, s.tick);
    putU64(os, s.order.size());
    for (const int id : s.order)
        putU64(os, static_cast<std::uint64_t>(id));
    putU64(os, s.mem.size());
    for (const Snapshot::MemRange& mr : s.mem) {
        putU64(os, mr.va);
        putU64(os, mr.bytes.size());
        os.write(reinterpret_cast<const char*>(mr.bytes.data()),
                 static_cast<std::streamsize>(mr.bytes.size()));
    }
    putU64(os, s.counters.size());
    for (const auto& [name, v] : s.counters) {
        putStr(os, name);
        putU64(os, v);
    }
    if (!os)
        tt_fatal("short write to checkpoint file '", path, "'");
}

Snapshot
loadSnapshot(const std::string& path)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        tt_fatal("cannot read checkpoint file '", path, "'");
    const std::streamoff size = is.tellg();
    is.seekg(0);
    if (size < 0 || !is)
        tt_fatal("cannot read checkpoint file '", path, "'");
    Reader in(is, static_cast<std::uint64_t>(size), path);
    char magic[sizeof kMagic] = {};
    in.read(magic, sizeof magic);
    if (std::string(magic, sizeof magic) !=
        std::string(kMagic, sizeof kMagic))
        tt_fatal("'", path, "' is not a TTCKPT2 checkpoint");
    Snapshot s;
    s.fingerprint = in.u64();
    s.episodes = in.u64();
    s.tick = in.u64();
    s.order.resize(in.count(sizeof(std::uint64_t)));
    for (int& id : s.order)
        id = static_cast<int>(in.u64());
    // A range is at least its va and its length prefix; a counter at
    // least its name's length prefix and its value.
    s.mem.resize(in.count(2 * sizeof(std::uint64_t)));
    for (Snapshot::MemRange& mr : s.mem) {
        mr.va = in.u64();
        mr.bytes.resize(in.count(1));
        in.read(mr.bytes.data(), mr.bytes.size());
    }
    s.counters.resize(in.count(2 * sizeof(std::uint64_t)));
    for (auto& [name, v] : s.counters) {
        name = in.str();
        v = in.u64();
    }
    return s;
}

} // namespace tt
