/**
 * @file
 * Checkpoint/restart acceptance tests (DESIGN.md §15): a run that
 * writes a checkpoint at a barrier epoch and a fresh run restored
 * from that file must be byte-identical from the snapshot tick on —
 * same exec time, same application checksum, same stats JSON. Also
 * pins down the snapshot file format round trip, its rejection of
 * corrupt length prefixes and truncation, and the config fingerprint.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include "apps/workloads.hh"
#include "config/builders.hh"
#include "recovery/checkpoint.hh"
#include "recovery/snapshot.hh"

namespace tt
{
namespace
{

constexpr const char* kSystems[] = {"dirnnb", "stache", "migratory",
                                    "update"};
constexpr std::uint64_t kFp = 0x7357F00D;

std::unique_ptr<BenchApp>
mkApp(const std::string& system, TargetMachine& t)
{
    return makeTargetApp(system, "em3d", DataSet::Tiny, 1, 0.2, t);
}

struct RunRec
{
    Tick cycles = 0;
    double checksum = 0;
    std::string statsJson;
};

RunRec
record(TargetMachine& t, const BenchApp& app, const RunResult& r)
{
    RunRec rec;
    rec.cycles = r.execTime;
    rec.checksum = app.checksum();
    std::ostringstream os;
    t.m().stats().writeJson(os);
    rec.statsJson = os.str();
    return rec;
}

/** Run @p system to completion, checkpointing at @p epoch. */
RunRec
runCheckpointing(const std::string& system, const std::string& file,
                 bool check, std::uint64_t epoch = 2, int nodes = 8)
{
    MachineConfig cfg;
    cfg.core.nodes = nodes;
    cfg.check.enable = check;
    cfg.recovery.checkpointEpoch = epoch;
    cfg.recovery.checkpointFile = file;
    cfg.recovery.fingerprint = kFp;
    TargetMachine t = buildTarget(system, cfg);
    auto app = mkApp(system, t);
    const RunResult r = t.run(*app);
    EXPECT_NE(t.checkpoint, nullptr) << system;
    EXPECT_TRUE(t.checkpoint->written()) << system;
    return record(t, *app, r);
}

/** Run @p system restored from checkpoint @p file. */
RunRec
runRestored(const std::string& system, const std::string& file,
            bool check, int nodes = 8)
{
    MachineConfig cfg;
    cfg.core.nodes = nodes;
    cfg.check.enable = check;
    TargetMachine t = buildTarget(system, cfg);
    auto app = mkApp(system, t);
    const Snapshot snap = loadSnapshot(file);
    EXPECT_EQ(snap.fingerprint, kFp) << system;
    const Machine::RestartPlan plan = restorePlan(
        snap, t.m(), *t.network, t.m().memsys(), t.checker.get());
    const RunResult r = t.run(*app, plan);
    return record(t, *app, r);
}

TEST(Checkpoint, RoundTripIsByteIdenticalOnAllSystems)
{
    for (const char* system : kSystems) {
        const std::string file = ::testing::TempDir() + "ckpt_" +
                                 system + ".bin";
        const RunRec a = runCheckpointing(system, file, false);
        const RunRec b = runRestored(system, file, false);
        EXPECT_EQ(a.cycles, b.cycles) << system;
        EXPECT_EQ(a.checksum, b.checksum) << system;
        EXPECT_EQ(a.statsJson, b.statsJson) << system;
        std::remove(file.c_str());
    }
}

TEST(Checkpoint, MultiPageAllocationsRoundTripOnAllSystems)
{
    // On two nodes each EM3D array spans several pages (and Stache
    // blocks of one array have different owners), so the snapshot
    // reads and the restore writes whole multi-page ranges.
    for (const char* system : kSystems) {
        for (const bool check : {false, true}) {
            const std::string label =
                std::string(system) + (check ? " checked" : "");
            const std::string file = ::testing::TempDir() +
                                     "ckpt_2n_" + system + ".bin";
            const RunRec a = runCheckpointing(system, file, check, 2, 2);
            const RunRec b = runRestored(system, file, check, 2);
            EXPECT_EQ(a.cycles, b.cycles) << label;
            EXPECT_EQ(a.checksum, b.checksum) << label;
            EXPECT_EQ(a.statsJson, b.statsJson) << label;
            std::remove(file.c_str());
        }
    }
}

TEST(Checkpoint, RoundTripComposesWithChecker)
{
    // --check=fast on both sides: the checker's shadow state is
    // canonicalized and rebuilt through the poke path; a restored run
    // must stay violation-free and byte-identical.
    const std::string file =
        ::testing::TempDir() + "ckpt_checked.bin";
    const RunRec a = runCheckpointing("stache", file, true);
    const RunRec b = runRestored("stache", file, true);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.statsJson, b.statsJson);
    std::remove(file.c_str());
}

TEST(Checkpoint, RestoreTwiceIsDeterministic)
{
    const std::string file =
        ::testing::TempDir() + "ckpt_twice.bin";
    runCheckpointing("dirnnb", file, false);
    const RunRec a = runRestored("dirnnb", file, false);
    const RunRec b = runRestored("dirnnb", file, false);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.statsJson, b.statsJson);
    std::remove(file.c_str());
}

TEST(Checkpoint, SnapshotFileRoundTripPreservesEveryField)
{
    Snapshot s;
    s.fingerprint = 0xDEAD'BEEF'1234'5678ULL;
    s.episodes = 7;
    s.tick = 123456;
    s.order = {2, 0, 3, 1};
    Snapshot::MemRange r;
    r.va = 0x10000;
    for (int i = 0; i < 300; ++i)
        r.bytes.push_back(static_cast<std::uint8_t>(i * 7));
    s.mem.push_back(r);
    s.counters = {{"alpha", 1}, {"beta", 99999999999ULL}};

    const std::string file =
        ::testing::TempDir() + "ckpt_fields.bin";
    saveSnapshot(s, file);
    const Snapshot t = loadSnapshot(file);
    EXPECT_EQ(t.fingerprint, s.fingerprint);
    EXPECT_EQ(t.episodes, s.episodes);
    EXPECT_EQ(t.tick, s.tick);
    EXPECT_EQ(t.order, s.order);
    ASSERT_EQ(t.mem.size(), 1u);
    EXPECT_EQ(t.mem[0].va, s.mem[0].va);
    EXPECT_EQ(t.mem[0].bytes, s.mem[0].bytes);
    EXPECT_EQ(t.counters, s.counters);
    std::remove(file.c_str());
}

TEST(Checkpoint, CorruptLengthOrTruncatedFileIsFatal)
{
    Snapshot s;
    s.order = {2, 0, 3, 1};
    s.mem.push_back({0x10000, std::vector<std::uint8_t>(300, 7)});
    s.counters = {{"alpha", 1}, {"beta", 2}};
    const std::string file = ::testing::TempDir() + "ckpt_corrupt.bin";
    saveSnapshot(s, file);
    std::string good;
    {
        std::ifstream f(file, std::ios::binary);
        good.assign(std::istreambuf_iterator<char>(f), {});
    }
    auto loadBytes = [&](const std::string& bytes) {
        std::ofstream(file, std::ios::binary | std::ios::trunc)
            .write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
        return loadSnapshot(file);
    };

    // Offsets of every length prefix: the order count after the
    // magic, fingerprint, episodes and tick; the range count; the
    // range's byte length after its va; the counter count; and each
    // counter's name length.
    std::vector<std::size_t> prefixes;
    std::size_t off = 32;
    prefixes.push_back(off);
    off += 8 + 8 * s.order.size();
    prefixes.push_back(off);
    off += 16;
    prefixes.push_back(off);
    off += 8 + s.mem[0].bytes.size();
    prefixes.push_back(off);
    off += 8;
    for (const auto& [name, v] : s.counters) {
        prefixes.push_back(off);
        off += 8 + name.size() + 8;
    }
    ASSERT_EQ(off, good.size());
    EXPECT_EQ(loadBytes(good).counters, s.counters);

    for (const std::size_t at : prefixes) {
        std::string bad = good;
        const std::uint64_t huge = std::uint64_t{1} << 60;
        std::memcpy(&bad[at], &huge, sizeof huge);
        EXPECT_THROW(loadBytes(bad), FatalError) << "prefix at " << at;
    }
    for (std::size_t len = 0; len < good.size(); len += 8)
        EXPECT_THROW(loadBytes(good.substr(0, len)), FatalError)
            << "truncated to " << len;
    std::remove(file.c_str());
}

TEST(Checkpoint, ConfigFingerprintIsStableAndDiscriminating)
{
    EXPECT_EQ(configFingerprint("stache|8|128"),
              configFingerprint("stache|8|128"));
    EXPECT_NE(configFingerprint("stache|8|128"),
              configFingerprint("stache|4|128"));
    EXPECT_NE(configFingerprint(""), configFingerprint("x"));
}

} // namespace
} // namespace tt
