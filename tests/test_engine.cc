/** @file Tests for engine::ParallelSearchEngine. */

#include "engine/parallel_search_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "hash/bit_select.h"

namespace caram::engine {
namespace {

using core::CaRamSubsystem;
using core::DatabaseConfig;
using core::PortOp;
using core::PortRequest;
using core::PortResponse;
using core::Record;

DatabaseConfig
smallDbConfig(const std::string &name)
{
    DatabaseConfig cfg;
    cfg.name = name;
    cfg.sliceShape.indexBits = 6;
    cfg.sliceShape.logicalKeyBits = 32;
    cfg.sliceShape.ternary = false;
    cfg.sliceShape.slotsPerBucket = 4;
    cfg.sliceShape.dataBits = 16;
    cfg.sliceShape.maxProbeDistance = 16;
    cfg.indexFactory = [](const core::SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        return std::make_unique<hash::LowBitsIndex>(eff.logicalKeyBits,
                                                    eff.indexBits);
    };
    return cfg;
}

/** A subsystem with @p nports databases, each loaded with records. */
std::unique_ptr<CaRamSubsystem>
buildLoaded(unsigned nports, uint64_t records_per_db,
            bool split_queues = true)
{
    auto sys = std::make_unique<CaRamSubsystem>(1024, 1024, split_queues);
    Rng rng(99);
    for (unsigned p = 0; p < nports; ++p) {
        auto &db =
            sys->addDatabase(smallDbConfig("db" + std::to_string(p)));
        for (uint64_t i = 0; i < records_per_db; ++i) {
            db.insert(Record{Key::fromUint(rng.next64() & 0xffffffffu,
                                           32),
                             i});
        }
    }
    return sys;
}

/** A balanced search stream over @p nports ports. */
std::vector<PortRequest>
searchStream(unsigned nports, std::size_t per_port, uint64_t seed = 7)
{
    Rng rng(seed);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (std::size_t i = 0; i < per_port; ++i) {
        for (unsigned p = 0; p < nports; ++p) {
            PortRequest req;
            req.port = p;
            req.op = PortOp::Search;
            req.key = Key::fromUint(rng.next64() & 0xffffffffu, 32);
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
    }
    return stream;
}

/** Drain a subsystem serially, returning per-port response streams.
 *  The forced-filter CI leg (CARAM_PREFILTER=1) turns pre-filter
 *  consultation on for engine-owned slices only; the oracle subsystem
 *  has no engine, so mirror the setting here -- the differentials then
 *  verify the filtered engine against a filtered serial reference,
 *  bucketsAccessed included. */
std::vector<std::vector<PortResponse>>
serialReference(CaRamSubsystem &sys,
                const std::vector<PortRequest> &stream,
                bool mirror_env_prefilter = true)
{
    if (const char *env = std::getenv("CARAM_PREFILTER");
        mirror_env_prefilter && env && std::string_view(env) == "1") {
        for (std::size_t p = 0; p < sys.databaseCount(); ++p)
            sys.database(static_cast<unsigned>(p))
                .setPrefilterEnabled(true);
    }
    std::vector<std::vector<PortResponse>> per_port(
        sys.databaseCount());
    std::size_t next = 0;
    while (true) {
        next += sys.submitBatch(
            std::span<const PortRequest>(stream.data() + next,
                                         stream.size() - next));
        sys.process();
        bool any = false;
        while (auto r = sys.fetchResult()) {
            any = true;
            per_port[r->port].push_back(std::move(*r));
        }
        if (next >= stream.size() && !any)
            break;
    }
    return per_port;
}

void
expectSameResponse(const PortResponse &a, const PortResponse &b)
{
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.port, b.port);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.hit, b.hit);
    EXPECT_EQ(a.data, b.data);
    EXPECT_EQ(a.bucketsAccessed, b.bucketsAccessed);
    EXPECT_TRUE(a.key == b.key);
}

void
expectMatchesReference(
    ParallelSearchEngine &eng,
    const std::vector<std::vector<PortResponse>> &reference)
{
    for (unsigned p = 0; p < reference.size(); ++p) {
        std::size_t i = 0;
        while (auto r = eng.fetchResult(p)) {
            ASSERT_LT(i, reference[p].size()) << "port " << p;
            expectSameResponse(*r, reference[p][i]);
            ++i;
        }
        EXPECT_EQ(i, reference[p].size()) << "port " << p;
    }
}

TEST(Engine, RequiresDatabases)
{
    CaRamSubsystem sys;
    EXPECT_THROW(ParallelSearchEngine eng(sys), caram::FatalError);
}

TEST(Engine, WorkerShardingCoversEveryPort)
{
    auto sys = buildLoaded(5, 0);
    EngineConfig cfg;
    cfg.workers = 2;
    ParallelSearchEngine eng(*sys, cfg);
    EXPECT_EQ(eng.workerOf(0), 0u);
    EXPECT_EQ(eng.workerOf(1), 1u);
    EXPECT_EQ(eng.workerOf(2), 0u);
    EXPECT_EQ(eng.workerOf(3), 1u);
    EXPECT_EQ(eng.workerOf(4), 0u);
}

TEST(Engine, InlineFallbackMatchesSerialProcess)
{
    const auto stream = searchStream(3, 40);
    auto serial_sys = buildLoaded(3, 120);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(3, 120);
    EngineConfig cfg;
    cfg.workers = 0; // deterministic inline execution
    ParallelSearchEngine eng(*sys, cfg);
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    expectMatchesReference(eng, reference);
}

TEST(Engine, ThreadedResultsMatchSerialPerPortStreams)
{
    const auto stream = searchStream(4, 200);
    auto serial_sys = buildLoaded(4, 150);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(4, 150);
    EngineConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 64; // small: exercises backpressure blocking
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    eng.stop();
}

TEST(Engine, MixedOperationsMatchSerial)
{
    // Inserts, searches and erases through the engine: per-port FIFO
    // order makes the database state evolution identical to serial.
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (unsigned p = 0; p < 2; ++p) {
        for (uint64_t i = 0; i < 30; ++i) {
            PortRequest ins;
            ins.port = p;
            ins.op = PortOp::Insert;
            ins.key = Key::fromUint(i * 13 + p, 32);
            ins.data = i;
            ins.tag = ++tag;
            stream.push_back(ins);
        }
        for (uint64_t i = 0; i < 30; ++i) {
            PortRequest s;
            s.port = p;
            s.op = PortOp::Search;
            s.key = Key::fromUint(i * 13 + p, 32);
            s.tag = ++tag;
            stream.push_back(s);
            if (i % 3 == 0) {
                PortRequest e;
                e.port = p;
                e.op = PortOp::Erase;
                e.key = Key::fromUint(i * 13 + p, 32);
                e.tag = ++tag;
                stream.push_back(e);
            }
        }
    }

    auto serial_sys = buildLoaded(2, 0);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(2, 0);
    EngineConfig cfg;
    cfg.workers = 2;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    EXPECT_EQ(sys->database(0).size(), serial_sys->database(0).size());
}

TEST(Engine, RetainedDatabaseYieldsErrorsNotDeath)
{
    auto sys = buildLoaded(2, 50);
    sys->database(1).setPowerState(core::PowerState::Retention);

    EngineConfig cfg;
    cfg.workers = 2;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    const auto stream = searchStream(2, 20);
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    eng.stop();

    // Port 0 served normally; port 1 answered every request with an
    // error response instead of killing the worker.
    EXPECT_EQ(eng.portStats(0).errors, 0u);
    EXPECT_EQ(eng.portStats(0).completed, 20u);
    EXPECT_EQ(eng.portStats(1).errors, 20u);
    EXPECT_EQ(eng.portStats(1).completed, 20u);
    while (auto r = eng.fetchResult(1)) {
        EXPECT_FALSE(r->ok);
        EXPECT_FALSE(r->hit);
    }
}

TEST(Engine, BatchedResultsMatchSerialAcrossBatchSizes)
{
    // A duplicate-heavy stream (small key space): searches run one by
    // one behind the prefetch pipeline at every batch width, and the
    // result streams stay bit-identical to serial.
    Rng rng(123);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (std::size_t i = 0; i < 600; ++i) {
        PortRequest req;
        req.port = static_cast<unsigned>(i % 2);
        req.op = PortOp::Search;
        req.key = Key::fromUint(rng.below(64) * 1021u, 32);
        req.tag = ++tag;
        stream.push_back(std::move(req));
    }
    auto serial_sys = buildLoaded(2, 150);
    const auto reference = serialReference(*serial_sys, stream);

    for (std::size_t batch : {2u, 8u, 32u, 64u}) {
        auto sys = buildLoaded(2, 150);
        EngineConfig cfg;
        cfg.workers = 2;
        cfg.batchSize = batch;
        ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        EXPECT_EQ(eng.submitBatch(stream), stream.size());
        eng.drain();
        expectMatchesReference(eng, reference);
        eng.stop();
    }
}

TEST(Engine, BatchedMixedOperationsFlushAroundMutations)
{
    // Insert/search/erase interleaved: a mutation must flush the search
    // run, so the database evolution stays serial-identical even with
    // batching on.
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (unsigned p = 0; p < 2; ++p) {
        for (uint64_t i = 0; i < 40; ++i) {
            PortRequest ins;
            ins.port = p;
            ins.op = PortOp::Insert;
            ins.key = Key::fromUint(i * 7 + p, 32);
            ins.data = i;
            ins.tag = ++tag;
            stream.push_back(ins);
            for (uint64_t s = 0; s <= i % 3; ++s) {
                PortRequest q;
                q.port = p;
                q.op = PortOp::Search;
                q.key = Key::fromUint((i - s) * 7 + p, 32);
                q.tag = ++tag;
                stream.push_back(q);
            }
            if (i % 4 == 0) {
                PortRequest e;
                e.port = p;
                e.op = PortOp::Erase;
                e.key = Key::fromUint(i * 7 + p, 32);
                e.tag = ++tag;
                stream.push_back(e);
            }
        }
    }
    auto serial_sys = buildLoaded(2, 0);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(2, 0);
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.batchSize = 16;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    EXPECT_EQ(sys->database(0).size(), serial_sys->database(0).size());
    EXPECT_EQ(sys->database(1).size(), serial_sys->database(1).size());
}

TEST(Engine, BatchedRetainedDatabaseStillYieldsErrors)
{
    auto sys = buildLoaded(1, 50);
    sys->database(0).setPowerState(core::PowerState::Retention);
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.batchSize = 32;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    const auto stream = searchStream(1, 40);
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    eng.stop();
    EXPECT_EQ(eng.portStats(0).errors, 40u);
    EXPECT_EQ(eng.portStats(0).completed, 40u);
    while (auto r = eng.fetchResult(0))
        EXPECT_FALSE(r->ok);
}

/** Bit-identical stored tables (raw rows + size). */
void
expectSameTable(core::Database &a, core::Database &b)
{
    const mem::MemoryArray &ma = a.slice().array();
    const mem::MemoryArray &mb = b.slice().array();
    ASSERT_EQ(ma.rows(), mb.rows());
    ASSERT_EQ(ma.wordsPerRow(), mb.wordsPerRow());
    for (uint64_t row = 0; row < ma.rows(); ++row) {
        for (uint64_t w = 0; w < ma.wordsPerRow(); ++w) {
            ASSERT_EQ(ma.rowData(row)[w], mb.rowData(row)[w])
                << "row " << row << " word " << w;
        }
    }
    EXPECT_EQ(a.size(), b.size());
}

/** Bursty insert trains (same home bucket repeated) over the ports. */
std::vector<PortRequest>
insertStream(unsigned nports, std::size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    while (stream.size() < count) {
        const unsigned p = static_cast<unsigned>(rng.below(nports));
        const uint64_t bucket = rng.below(64);
        const unsigned train = 1 + static_cast<unsigned>(rng.below(6));
        for (unsigned t = 0; t < train && stream.size() < count; ++t) {
            PortRequest req;
            req.port = p;
            req.op = PortOp::Insert;
            req.key = Key::fromUint(bucket | (rng.below(1u << 20) << 6),
                                    32);
            req.data = rng.below(1u << 16);
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
    }
    return stream;
}

TEST(Engine, BatchedIngestMatchesSerial)
{
    // Consecutive same-port inserts run through Database::insertBatch;
    // the stored tables and the response streams must stay
    // bit-identical to serial execution, while the ingest accounting
    // shows the row-op economy.
    const auto stream = insertStream(2, 500, 17);
    auto serial_sys = buildLoaded(2, 0);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(2, 0);
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.batchSize = 32;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    eng.stop();

    const EngineReport rep = eng.report();
    EXPECT_GT(rep.batchedInsertRuns, 0u);
    EXPECT_GT(rep.ingest.accepted, 0u);
    EXPECT_LE(rep.ingest.rowFetches, rep.ingest.serialRowFetches);
    expectSameTable(sys->database(0), serial_sys->database(0));
    expectSameTable(sys->database(1), serial_sys->database(1));
}

TEST(Engine, RebuildRepacksThroughPort)
{
    auto sys = buildLoaded(1, 0);
    core::Database &db = sys->database(0);
    Rng rng(5);
    std::vector<Key> keys;
    for (unsigned i = 0; i < 120; ++i) {
        const Key k = Key::fromUint(rng.next64() & 0xffffffffu, 32);
        if (db.insert(Record{k, i}))
            keys.push_back(k);
    }
    // Erase a third: the rebuild scrubs the holes and repacks.
    for (std::size_t i = 0; i < keys.size(); i += 3)
        db.erase(keys[i]);
    const uint64_t live = db.size();

    EngineConfig cfg;
    cfg.workers = 1;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_TRUE(eng.submitRebuild(0, 99));
    eng.drain();
    eng.stop();

    auto r = eng.fetchResult(0);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->tag, 99u);
    EXPECT_EQ(r->op, PortOp::Rebuild);
    EXPECT_TRUE(r->ok);
    EXPECT_TRUE(r->hit);
    EXPECT_EQ(r->data, live);
    EXPECT_EQ(db.size(), live);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i % 3 == 0)
            continue; // erased
        EXPECT_TRUE(db.search(keys[i]).hit) << "key " << i;
    }
}

TEST(Engine, BulkLoadMatchesSerialConstruction)
{
    Rng rng(77);
    std::vector<Record> records;
    for (unsigned i = 0; i < 400; ++i) {
        records.push_back(
            Record{Key::fromUint(rng.next64() & 0xffffffffu, 32),
                   rng.below(1u << 16)});
    }
    auto serial_sys = buildLoaded(1, 0);
    for (const Record &rec : records)
        serial_sys->database(0).insert(rec);

    auto sys = buildLoaded(1, 0);
    ParallelSearchEngine eng(*sys, EngineConfig{});
    const core::InsertBatchSummary sum = eng.bulkLoad(0, records);
    EXPECT_EQ(sum.accepted + sum.failed, records.size());
    EXPECT_LE(sum.rowFetches, sum.serialRowFetches);
    expectSameTable(sys->database(0), serial_sys->database(0));
}

TEST(Engine, BatchSizeLeavesSearchModeledCyclesUnchanged)
{
    // Searches run one by one behind the prefetch pipeline whatever
    // batchSize says: bursts of one key are charged one chain walk per
    // request, exactly as at batchSize 1, and the hints change neither
    // responses nor bucketsAccessed.
    Rng rng(5);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (std::size_t i = 0; i < 128; ++i) {
        const Key k = Key::fromUint(rng.below(32) * 977u, 32);
        for (int c = 0; c < 8; ++c) {
            PortRequest req;
            req.port = 0;
            req.op = PortOp::Search;
            req.key = k;
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
    }
    auto serial_sys = buildLoaded(1, 150);
    // No env mirroring: the subject engines pin the filter off below.
    const auto reference = serialReference(*serial_sys, stream, false);
    uint64_t serial_accesses = 0;
    for (const PortResponse &r : reference[0])
        serial_accesses += std::max(1u, r.bucketsAccessed);
    auto run = [&](std::size_t batch) {
        auto sys = buildLoaded(1, 150);
        EngineConfig cfg;
        cfg.workers = 1;
        cfg.batchSize = batch;
        cfg.queueCapacity = stream.size() + 1;
        // Pin the cache and the filter off: this test counts chain
        // walks, which either would shorten.
        cfg.resultCacheEntries = 0;
        cfg.prefilter = false;
        ParallelSearchEngine eng(*sys, cfg);
        // Queue everything before starting the worker so every popped
        // batch is a full one (the pipeline hints inside it).
        eng.submitBatch(stream);
        eng.start();
        eng.drain();
        eng.stop();
        expectMatchesReference(eng, reference);
        return eng.portStats(0).modeledCycles.load();
    };
    const uint64_t n_mem = std::max(1u, EngineConfig{}.timing.minCycleGap);
    EXPECT_EQ(run(1), serial_accesses * n_mem);
    EXPECT_EQ(run(32), serial_accesses * n_mem);
}

TEST(Engine, InlineModeIgnoresBatchSize)
{
    const auto stream = searchStream(2, 30);
    auto serial_sys = buildLoaded(2, 100);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(2, 100);
    EngineConfig cfg;
    cfg.workers = 0;
    cfg.batchSize = 64; // ignored: inline executes at submit time
    ParallelSearchEngine eng(*sys, cfg);
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    expectMatchesReference(eng, reference);
}

TEST(Engine, TrySubmitBackpressuresWhenQueueFull)
{
    auto sys = buildLoaded(1, 10);
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 4;
    ParallelSearchEngine eng(*sys, cfg);
    // Not started: the worker queue fills and trySubmit refuses.
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_TRUE(eng.trySubmit(0, Key::fromUint(i, 32), i));
    EXPECT_FALSE(eng.trySubmit(0, Key::fromUint(9, 32), 9));
    eng.start();
    eng.drain();
    EXPECT_EQ(eng.portStats(0).completed, 4u);
    eng.stop();
}

TEST(Engine, PerPortStatsAndLatencyInstrumentation)
{
    auto sys = buildLoaded(2, 100);
    EngineConfig cfg;
    cfg.workers = 2;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    const auto stream = searchStream(2, 50);
    eng.submitBatch(stream);
    eng.drain();
    eng.stop();
    for (unsigned p = 0; p < 2; ++p) {
        const PortStats &s = eng.portStats(p);
        EXPECT_EQ(s.submitted, 50u);
        EXPECT_EQ(s.completed, 50u);
        EXPECT_EQ(s.latencyUs.count(), 50u);
        EXPECT_GE(s.latencyUs.mean(), 0.0);
        EXPECT_EQ(s.latencyLog2Us.totalCount(), 50u);
        EXPECT_EQ(s.bucketsAccessed.totalCount(), 50u);
        EXPECT_GT(s.modeledCycles, 0u);
    }
    EXPECT_THROW(eng.portStats(7), caram::FatalError);
}

TEST(Engine, ModeledSpeedupScalesWithWorkersOnBalancedLoad)
{
    const auto stream = searchStream(4, 100);
    auto sys = buildLoaded(4, 100);
    EngineConfig cfg;
    cfg.workers = 4;
    cfg.timing = mem::MemTiming::embeddedDram(200.0, 6);
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    eng.submitBatch(stream);
    eng.drain();
    const EngineReport rep = eng.report();
    EXPECT_EQ(rep.completed, stream.size());
    EXPECT_EQ(rep.workers, 4u);
    // Four balanced ports on four modeled controllers: near-linear.
    EXPECT_GE(rep.modeledSpeedup, 3.0);
    EXPECT_LE(rep.modeledSpeedup, 4.0 + 1e-9);
    EXPECT_GT(rep.modeledMsps, 0.0);
    EXPECT_GT(rep.analyticBoundMsps, 0.0);
    // One modeled controller cannot beat the serial drain.
    EXPECT_NEAR(rep.modeledSerialMsps * rep.modeledSpeedup,
                rep.modeledMsps, 1e-6);
}

// ---------------------------------------------------------------------
// Intra-lookup row fan-out: ternary keys with don't-care bits in hash
// tap positions duplicate across many candidate home rows; the engine
// shards those lookups across idle workers and must stay bit-identical
// to the serial subsystem drain.

/** Hash taps of the ternary test databases; a search key leaving the
 *  first w of them don't-care expands to exactly 2^w home rows. */
constexpr std::array<unsigned, 6> kFanoutTaps = {0, 5, 11, 17, 23, 29};

DatabaseConfig
ternaryDbConfig(const std::string &name)
{
    DatabaseConfig cfg;
    cfg.name = name;
    cfg.sliceShape.indexBits = 6;
    cfg.sliceShape.logicalKeyBits = 32;
    cfg.sliceShape.ternary = true;
    cfg.sliceShape.slotsPerBucket = 4;
    cfg.sliceShape.dataBits = 16;
    cfg.sliceShape.maxProbeDistance = 16;
    cfg.indexFactory = [](const core::SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        return std::make_unique<hash::BitSelectIndex>(
            eff.logicalKeyBits,
            std::vector<unsigned>(kFanoutTaps.begin(),
                                  kFanoutTaps.end()));
    };
    return cfg;
}

/** A random ternary key with the first @p wild_taps hash taps
 *  don't-care (2^wild_taps candidate homes). */
Key
ternaryKey(Rng &rng, unsigned wild_taps)
{
    Key k(32);
    for (unsigned p = 0; p < 32; ++p)
        k.setBitAt(p, rng.chance(0.5), true);
    for (unsigned w = 0; w < wild_taps && w < kFanoutTaps.size(); ++w)
        k.setBitAt(kFanoutTaps[w], false, false);
    return k;
}

/** Ternary databases loaded with mostly-specified records (some
 *  duplicated across homes via one or two wildcard taps). */
std::unique_ptr<CaRamSubsystem>
buildLoadedTernary(unsigned nports, uint64_t records_per_db,
                   uint64_t seed = 31)
{
    auto sys = std::make_unique<CaRamSubsystem>(1024, 1024, true);
    Rng rng(seed);
    for (unsigned p = 0; p < nports; ++p) {
        auto &db =
            sys->addDatabase(ternaryDbConfig("tdb" + std::to_string(p)));
        for (uint64_t i = 0; i < records_per_db; ++i)
            db.insert(Record{ternaryKey(rng, i % 7 == 0 ? 1 : 0),
                             rng.below(1u << 16)});
    }
    return sys;
}

/** Search stream mixing fully specified keys with wildcard lookups of
 *  up to @p max_wild don't-care taps (up to 2^max_wild homes). */
std::vector<PortRequest>
wildSearchStream(unsigned nports, std::size_t per_port,
                 unsigned max_wild, uint64_t seed)
{
    Rng rng(seed);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (std::size_t i = 0; i < per_port; ++i) {
        for (unsigned p = 0; p < nports; ++p) {
            PortRequest req;
            req.port = p;
            req.op = PortOp::Search;
            req.key = ternaryKey(
                rng, static_cast<unsigned>(rng.below(max_wild + 1)));
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
    }
    return stream;
}

/** Mixed mutating stream: inserts, wildcard searches and erases, so
 *  fan-out lookups drain before same-port mutations. */
std::vector<PortRequest>
wildMutationStream(unsigned nports, std::size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<PortRequest> stream;
    std::vector<std::vector<Key>> pool(nports);
    uint64_t tag = 0;
    while (stream.size() < count) {
        const unsigned p = static_cast<unsigned>(rng.below(nports));
        PortRequest req;
        req.port = p;
        req.tag = ++tag;
        const double roll = rng.uniform();
        if (roll < 0.25) {
            req.op = PortOp::Insert;
            req.key = ternaryKey(rng, rng.chance(0.2) ? 1 : 0);
            req.data = rng.below(1u << 16);
            pool[p].push_back(req.key);
        } else if (roll < 0.35 && !pool[p].empty()) {
            req.op = PortOp::Erase;
            req.key = pool[p][rng.below(pool[p].size())];
        } else {
            req.op = PortOp::Search;
            req.key = ternaryKey(
                rng, static_cast<unsigned>(rng.below(7)));
        }
        stream.push_back(std::move(req));
    }
    return stream;
}

TEST(Engine, FanoutInlineMatchesSerial)
{
    // workers == 0: the shards run sequentially inline through the
    // same scheduler code path -- deterministic, and bit-identical to
    // the serial subsystem drain.
    const auto stream = wildSearchStream(2, 150, 6, 91);
    auto serial_sys = buildLoadedTernary(2, 120);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoadedTernary(2, 120);
    EngineConfig cfg;
    cfg.workers = 0;
    cfg.rowFanoutMin = 2;
    cfg.rowFanoutMaxShards = 8;
    ParallelSearchEngine eng(*sys, cfg);
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    expectMatchesReference(eng, reference);
    EXPECT_GT(eng.report().fanoutLookups, 0u);
    EXPECT_GT(eng.report().fanoutShards, eng.report().fanoutLookups);
}

TEST(Engine, FanoutThreadedMatchesSerialWithMutations)
{
    // Four workers stealing each other's shards under concurrent
    // multi-port traffic with interleaved mutations: the per-port
    // response streams and final table sizes must stay bit-identical
    // to serial execution (fan-out drains before Insert/Erase on the
    // same port).  This is the primary TSan target for the fan-out
    // scheduler.
    const auto stream = wildMutationStream(4, 1200, 77);
    auto serial_sys = buildLoadedTernary(4, 80);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoadedTernary(4, 80);
    EngineConfig cfg;
    cfg.workers = 4;
    cfg.rowFanoutMin = 2;
    cfg.rowFanoutMaxShards = 4;
    cfg.queueCapacity = 64; // backpressure while shards are in flight
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    eng.stop();
    expectMatchesReference(eng, reference);
    for (unsigned p = 0; p < 4; ++p)
        EXPECT_EQ(sys->database(p).size(),
                  serial_sys->database(p).size())
            << "port " << p;
    EXPECT_GT(eng.report().fanoutLookups, 0u);
}

TEST(Engine, FanoutConcurrentProducersMatchSerial)
{
    // Two producer threads submitting disjoint port sets while four
    // workers coordinate and steal shards: per-port FIFO order is
    // still deterministic, so every port's response stream must match
    // the serial reference.
    const auto streamA = wildMutationStream(2, 600, 101); // ports 0..1
    auto streamB = wildMutationStream(2, 600, 202);       // ports 2..3
    for (PortRequest &req : streamB)
        req.port += 2;

    std::vector<PortRequest> combined = streamA;
    combined.insert(combined.end(), streamB.begin(), streamB.end());
    auto serial_sys = buildLoadedTernary(4, 60);
    const auto reference = serialReference(*serial_sys, combined);

    auto sys = buildLoadedTernary(4, 60);
    EngineConfig cfg;
    cfg.workers = 4;
    cfg.rowFanoutMin = 2;
    cfg.rowFanoutMaxShards = 4;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    std::thread producerA(
        [&] { EXPECT_EQ(eng.submitBatch(streamA), streamA.size()); });
    std::thread producerB(
        [&] { EXPECT_EQ(eng.submitBatch(streamB), streamB.size()); });
    producerA.join();
    producerB.join();
    eng.drain();
    eng.stop();
    expectMatchesReference(eng, reference);
}

TEST(Engine, FanoutStatsAccounted)
{
    // Deterministic shard accounting: ten 4-home lookups at maxShards
    // 8 fan out into exactly 4 shards each; fully specified keys stay
    // off the fan-out path at a threshold of 2.
    auto sys = buildLoadedTernary(1, 60);
    EngineConfig cfg;
    cfg.workers = 0;
    cfg.rowFanoutMin = 2;
    cfg.rowFanoutMaxShards = 8;
    // Shard counts below are exact; the pre-filter would prune homes
    // with empty chains, so pin it off (explicit false beats the
    // forced-filter CI leg, like the result cache's explicit 0).
    cfg.prefilter = false;
    ParallelSearchEngine eng(*sys, cfg);
    Rng rng(9);
    uint64_t tag = 0;
    for (int i = 0; i < 10; ++i) {
        PortRequest req;
        req.port = 0;
        req.op = PortOp::Search;
        req.key = ternaryKey(rng, 2); // 4 homes
        req.tag = ++tag;
        ASSERT_TRUE(eng.submitRequest(req));
    }
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(eng.submit(0, ternaryKey(rng, 0), ++tag));
    const EngineReport rep = eng.report();
    EXPECT_EQ(rep.fanoutLookups, 10u);
    EXPECT_EQ(rep.fanoutShards, 40u);
    EXPECT_EQ(rep.fanoutSerialFallbacks, 0u);
    EXPECT_EQ(rep.completed, 15u);

    // A forced threshold of 1 routes even single-home keys through the
    // scheduler; they collapse to one shard and are counted as serial
    // fallbacks (the forced-fan-out CI leg's configuration).
    auto sys2 = buildLoadedTernary(1, 60);
    EngineConfig cfg2;
    cfg2.workers = 0;
    cfg2.rowFanoutMin = 1;
    cfg2.prefilter = false; // same exact-count reasoning as above
    ParallelSearchEngine eng2(*sys2, cfg2);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(eng2.submit(0, ternaryKey(rng, 0), ++tag));
    EXPECT_EQ(eng2.report().fanoutLookups, 5u);
    EXPECT_EQ(eng2.report().fanoutSerialFallbacks, 5u);
}

TEST(Engine, FanoutReducesModeledCyclesOnWideLookups)
{
    // 64-home lookups: serially the port walks all 64 candidate
    // chains back to back; fanned out across 8 shards the banks fetch
    // concurrently and the lookup occupies the port only for the
    // slowest shard's chain.  The modeled cycles must drop by >= 2x
    // (the bench gates the same ratio on bigger tables).
    std::vector<PortRequest> stream;
    Rng rng(13);
    uint64_t tag = 0;
    for (int i = 0; i < 200; ++i) {
        PortRequest req;
        req.port = 0;
        req.op = PortOp::Search;
        req.key = ternaryKey(rng, 6); // 2^6 = 64 candidate homes
        req.tag = ++tag;
        stream.push_back(std::move(req));
    }
    auto run = [&](unsigned fanout_min) {
        auto sys = buildLoadedTernary(1, 100);
        EngineConfig cfg;
        cfg.workers = 1;
        // An explicit nonzero threshold always wins over the
        // CARAM_ROW_FANOUT_MIN environment floor, so the serial
        // baseline stays serial under the forced CI leg too.
        cfg.rowFanoutMin = fanout_min;
        cfg.rowFanoutMaxShards = 8;
        cfg.queueCapacity = stream.size() + 1;
        ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        eng.submitBatch(stream);
        eng.drain();
        eng.stop();
        return eng.portStats(0).modeledCycles.load();
    };
    const uint64_t serial_cycles = run(1u << 20); // threshold unreachable
    const uint64_t fanout_cycles = run(2);
    EXPECT_GT(fanout_cycles, 0u);
    EXPECT_LE(fanout_cycles * 2, serial_cycles);
}

TEST(Engine, FanoutBatchInteractionMatchesSerial)
{
    // Bursts of one key with fan-out keys interspersed, at insert batch
    // widths that leave searches one by one: eligible keys fan out
    // between hinted single-key lookups, and the response stream stays
    // bit-identical in submission order.
    Rng rng(37);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    while (stream.size() < 800) {
        // Bursts of one fully specified key (hinted single-key
        // lookups), then an occasional wide wildcard lookup.
        const Key k = ternaryKey(rng, 0);
        for (int c = 0; c < 6 && stream.size() < 800; ++c) {
            PortRequest req;
            req.port = 0;
            req.op = PortOp::Search;
            req.key = k;
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
        if (rng.chance(0.5)) {
            PortRequest req;
            req.port = 0;
            req.op = PortOp::Search;
            req.key = ternaryKey(
                rng, 2 + static_cast<unsigned>(rng.below(5)));
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
    }
    auto serial_sys = buildLoadedTernary(1, 100);
    const auto reference = serialReference(*serial_sys, stream);

    for (std::size_t batch : {8u, 32u}) {
        auto sys = buildLoadedTernary(1, 100);
        EngineConfig cfg;
        cfg.workers = 2; // port 0's owner plus one shard thief
        cfg.batchSize = batch;
        cfg.rowFanoutMin = 4;
        cfg.rowFanoutMaxShards = 8;
        ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        EXPECT_EQ(eng.submitBatch(stream), stream.size());
        eng.drain();
        eng.stop();
        expectMatchesReference(eng, reference);
        EXPECT_GT(eng.report().fanoutLookups, 0u);
    }
}

TEST(Engine, ReportIsDeterministicAcrossRuns)
{
    const auto stream = searchStream(4, 50);
    auto run = [&] {
        auto sys = buildLoaded(4, 80);
        EngineConfig cfg;
        cfg.workers = 4;
        ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        eng.submitBatch(stream);
        eng.drain();
        const EngineReport r = eng.report();
        return std::pair<double, double>(r.modeledMsps,
                                         r.modeledSerialMsps);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_DOUBLE_EQ(a.first, b.first);
    EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(Engine, ReportAndStatsConsistentWhilePolledMidRun)
{
    // report() and portStats() from the submitting thread while the
    // workers are busy: every snapshot must be internally consistent
    // (wall throughput derived from the completions it counted, both
    // monotonically non-decreasing poll over poll, and a port never
    // reporting more completions than submissions).  ci_tsan.sh runs
    // this as the data-race regression for the counter fields.
    auto sys = buildLoaded(4, 200);
    EngineConfig cfg;
    cfg.workers = 4;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    const auto stream = searchStream(4, 2000, 0x7011);
    std::atomic<bool> done{false};
    std::thread submitter([&] {
        eng.submitBatch(stream);
        eng.drain();
        done.store(true, std::memory_order_release);
    });
    uint64_t last_completed = 0;
    double last_wall = 0.0;
    while (!done.load(std::memory_order_acquire)) {
        const EngineReport r = eng.report();
        EXPECT_GE(r.completed, last_completed);
        EXPECT_GE(r.wallSeconds, last_wall);
        if (r.wallSeconds > 0.0) {
            EXPECT_NEAR(r.wallMsps, r.completed / r.wallSeconds / 1e6,
                        1e-9);
        }
        last_completed = r.completed;
        last_wall = r.wallSeconds;
        for (unsigned p = 0; p < 4; ++p) {
            // completed before submitted: a counted completion's
            // submission increment always precedes it, so this order
            // can never observe completed > submitted.
            const PortStats &s = eng.portStats(p);
            const uint64_t comp =
                s.completed.load(std::memory_order_acquire);
            const uint64_t sub =
                s.submitted.load(std::memory_order_relaxed);
            EXPECT_LE(comp, sub) << "port " << p;
        }
    }
    submitter.join();
    const EngineReport final_report = eng.report();
    eng.stop();
    EXPECT_EQ(final_report.completed, stream.size());
    ASSERT_GT(final_report.wallSeconds, 0.0);
    EXPECT_NEAR(final_report.wallMsps,
                final_report.completed / final_report.wallSeconds / 1e6,
                1e-9);
    EXPECT_GE(final_report.wallSeconds, last_wall);
}

TEST(Engine, RowFanoutMinEnvReReadAtEachConstruction)
{
    // CARAM_ROW_FANOUT_MIN must be consulted fresh by every engine
    // construction, not latched process-wide by the first: two engines
    // in one process with different environments resolve differently.
    const char *old = std::getenv("CARAM_ROW_FANOUT_MIN");
    const std::string saved = old ? old : "";
    const bool had = old != nullptr;
    auto sys = buildLoaded(1, 10);
    EngineConfig cfg;
    cfg.workers = 0;
    setenv("CARAM_ROW_FANOUT_MIN", "3", 1);
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_EQ(eng.resolvedRowFanoutMin(), 3u);
    }
    setenv("CARAM_ROW_FANOUT_MIN", "7", 1);
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_EQ(eng.resolvedRowFanoutMin(), 7u);
    }
    unsetenv("CARAM_ROW_FANOUT_MIN");
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_EQ(eng.resolvedRowFanoutMin(), 0u);
    }
    // An explicit config value always beats the environment.
    setenv("CARAM_ROW_FANOUT_MIN", "5", 1);
    {
        EngineConfig forced = cfg;
        forced.rowFanoutMin = 2;
        ParallelSearchEngine eng(*sys, forced);
        EXPECT_EQ(eng.resolvedRowFanoutMin(), 2u);
    }
    if (had)
        setenv("CARAM_ROW_FANOUT_MIN", saved.c_str(), 1);
    else
        unsetenv("CARAM_ROW_FANOUT_MIN");
}

TEST(Engine, ResultCacheEntriesEnvReReadAtEachConstruction)
{
    // CARAM_RESULT_CACHE_ENTRIES must be consulted fresh by every
    // engine construction, not latched process-wide by the first.
    const char *old = std::getenv("CARAM_RESULT_CACHE_ENTRIES");
    const std::string saved = old ? old : "";
    const bool had = old != nullptr;
    auto sys = buildLoaded(1, 10);
    EngineConfig cfg;
    cfg.workers = 0;
    setenv("CARAM_RESULT_CACHE_ENTRIES", "1024", 1);
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_EQ(eng.resolvedResultCacheEntries(), 1024u);
    }
    setenv("CARAM_RESULT_CACHE_ENTRIES", "2048", 1);
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_EQ(eng.resolvedResultCacheEntries(), 2048u);
    }
    unsetenv("CARAM_RESULT_CACHE_ENTRIES");
    {
        ParallelSearchEngine eng(*sys, cfg);
        EXPECT_EQ(eng.resolvedResultCacheEntries(), 0u);
    }
    // An explicit config value always beats the environment --
    // including an explicit 0, which pins the cache off.
    setenv("CARAM_RESULT_CACHE_ENTRIES", "4096", 1);
    {
        EngineConfig forced = cfg;
        forced.resultCacheEntries = 512;
        ParallelSearchEngine eng(*sys, forced);
        EXPECT_EQ(eng.resolvedResultCacheEntries(), 512u);
    }
    {
        EngineConfig forced = cfg;
        forced.resultCacheEntries = 0;
        ParallelSearchEngine eng(*sys, forced);
        EXPECT_EQ(eng.resolvedResultCacheEntries(), 0u);
    }
    if (had)
        setenv("CARAM_RESULT_CACHE_ENTRIES", saved.c_str(), 1);
    else
        unsetenv("CARAM_RESULT_CACHE_ENTRIES");
}

TEST(Engine, ConcurrentMutationMixedOperationsMatchSerial)
{
    // Mutations executed in place by the port's owner, between batched
    // search and insert runs and around rebuilds: the same kind of
    // mixed stream as MixedOperationsMatchSerial, on two workers with
    // batchSize 4, still reproduces the serial per-port FIFO streams
    // and final tables bit for bit.
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (unsigned p = 0; p < 3; ++p) {
        for (uint64_t i = 0; i < 40; ++i) {
            PortRequest ins;
            ins.port = p;
            ins.op = PortOp::Insert;
            ins.key = Key::fromUint(i * 13 + p, 32);
            ins.data = i;
            ins.tag = ++tag;
            stream.push_back(ins);
        }
        for (uint64_t i = 0; i < 40; ++i) {
            PortRequest s;
            s.port = p;
            s.op = PortOp::Search;
            s.key = Key::fromUint(i * 13 + p, 32);
            s.tag = ++tag;
            stream.push_back(s);
            if (i % 3 == 0) {
                PortRequest e;
                e.port = p;
                e.op = PortOp::Erase;
                e.key = Key::fromUint(i * 13 + p, 32);
                e.tag = ++tag;
                stream.push_back(e);
            }
            if (i % 16 == 0) {
                PortRequest r;
                r.port = p;
                r.op = PortOp::Rebuild;
                r.tag = ++tag;
                stream.push_back(r);
            }
        }
    }

    auto serial_sys = buildLoaded(3, 0);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(3, 0);
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.batchSize = 4;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    for (unsigned p = 0; p < 3; ++p)
        EXPECT_EQ(sys->database(p).size(),
                  serial_sys->database(p).size());
    eng.stop();
}

TEST(Engine, DefaultConfigMixedOperationsMatchSerial)
{
    // A mixed insert/search/erase/rebuild stream through an untouched
    // EngineConfig (only the worker count set): the defaults must not
    // change any response or table.
    Rng rng(31);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (unsigned p = 0; p < 2; ++p) {
        for (uint64_t i = 0; i < 30; ++i) {
            PortRequest ins;
            ins.port = p;
            ins.op = PortOp::Insert;
            ins.key = Key::fromUint(i * 29 + p, 32);
            ins.data = i;
            ins.tag = ++tag;
            stream.push_back(ins);
            PortRequest s;
            s.port = p;
            s.op = PortOp::Search;
            s.key = Key::fromUint(rng.below(30) * 29 + p, 32);
            s.tag = ++tag;
            stream.push_back(s);
            if (i % 7 == 0) {
                PortRequest e;
                e.port = p;
                e.op = PortOp::Erase;
                e.key = Key::fromUint(rng.below(30) * 29 + p, 32);
                e.tag = ++tag;
                stream.push_back(e);
            }
            if (i % 11 == 0) {
                PortRequest r;
                r.port = p;
                r.op = PortOp::Rebuild;
                r.tag = ++tag;
                stream.push_back(r);
            }
        }
    }
    auto serial_sys = buildLoaded(2, 0);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(2, 0);
    EngineConfig cfg;
    cfg.workers = 2; // everything else at its defaults
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    for (unsigned p = 0; p < 2; ++p)
        EXPECT_EQ(sys->database(p).size(),
                  serial_sys->database(p).size());
    eng.stop();
}

TEST(Engine, ResultCacheCountersSurfaceInReport)
{
    // Engine-level view of the cache counters: repeats of a hot key
    // hit, mutations invalidate, and the totals roll up from the
    // per-port stats into the report.
    auto sys = buildLoaded(2, 40);
    EngineConfig cfg;
    cfg.workers = 0;
    cfg.resultCacheEntries = 512;
    ParallelSearchEngine eng(*sys, cfg);
    EXPECT_GT(eng.resolvedResultCacheEntries(), 0u);

    const Key hot = Key::fromUint(3, 32);
    uint64_t tag = 0;
    for (int i = 0; i < 5; ++i)
        eng.submit(0, hot, ++tag);
    PortRequest ins;
    ins.port = 0;
    ins.op = PortOp::Insert;
    ins.key = Key::fromUint(9999, 32);
    ins.tag = ++tag;
    eng.submitRequest(ins);
    eng.submit(0, hot, ++tag);
    eng.submit(1, hot, ++tag); // other port: its own partition, a miss

    const EngineReport rep = eng.report();
    EXPECT_EQ(rep.cacheHits, 4u);          // 5 repeats, first fills
    EXPECT_EQ(rep.cacheMisses, 3u);        // fill, post-insert, port 1
    EXPECT_EQ(rep.cacheInvalidations, 1u); // the insert
    EXPECT_EQ(eng.portStats(0).cacheHits.load(), 4u);
    EXPECT_EQ(eng.portStats(1).cacheMisses.load(), 1u);
}

/** A mixed Search/Insert/Erase stream over @p nports ports drawing keys
 *  from a small pool, so searches hit inserted keys and erases remove
 *  them; ports interleave at random. */
std::vector<PortRequest>
mixedPortStream(unsigned nports, std::size_t count, uint64_t seed,
                uint64_t first_tag = 0)
{
    Rng rng(seed);
    std::vector<PortRequest> stream;
    uint64_t tag = first_tag;
    for (std::size_t i = 0; i < count; ++i) {
        PortRequest req;
        req.port = static_cast<unsigned>(rng.below(nports));
        const uint64_t pick = rng.below(20);
        req.op = pick < 12 ? PortOp::Search
                 : pick < 17 ? PortOp::Insert
                             : PortOp::Erase;
        req.key = Key::fromUint(rng.below(96) * 7 + req.port, 32);
        req.data = i & 0xffff;
        req.tag = ++tag;
        stream.push_back(req);
    }
    return stream;
}

/** The oracle: core::executePortRequest applied to each request in
 *  submission order, collected per port.  Mirrors CARAM_PREFILTER onto
 *  the oracle's databases like serialReference(). */
std::vector<std::vector<PortResponse>>
executeSerially(CaRamSubsystem &sys, const std::vector<PortRequest> &stream)
{
    if (const char *env = std::getenv("CARAM_PREFILTER");
        env && std::string_view(env) == "1") {
        for (std::size_t p = 0; p < sys.databaseCount(); ++p)
            sys.database(static_cast<unsigned>(p))
                .setPrefilterEnabled(true);
    }
    std::vector<std::vector<PortResponse>> per_port(sys.databaseCount());
    for (const PortRequest &req : stream)
        per_port[req.port].push_back(
            core::executePortRequest(sys.database(req.port), req));
    return per_port;
}

/** 3 workers over 6 ports with 4-deep queues: every submitBatch below is
 *  far larger than a queue, so each lands in segments against
 *  backpressure. */
EngineConfig
smallQueueConfig()
{
    EngineConfig cfg;
    cfg.workers = 3;
    cfg.queueCapacity = 4;
    return cfg;
}

TEST(Engine, BulkSubmitLargerThanQueueMatchesSerialOracle)
{
    // One submitBatch of 1,500 mixed requests, grouped by owning worker
    // and pushed in queue-sized segments: every port's response stream
    // must equal the serial oracle's, in FIFO order, and the per-port
    // counters must be exact.
    constexpr unsigned kPorts = 6;
    const auto stream = mixedPortStream(kPorts, 1500, 0xb01c);
    auto serial_sys = buildLoaded(kPorts, 40);
    const auto reference = executeSerially(*serial_sys, stream);

    auto sys = buildLoaded(kPorts, 40);
    ParallelSearchEngine eng(*sys, smallQueueConfig());
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    for (unsigned p = 0; p < kPorts; ++p) {
        EXPECT_EQ(eng.portStats(p).submitted.load(), reference[p].size());
        EXPECT_EQ(eng.portStats(p).completed.load(), reference[p].size());
        EXPECT_EQ(sys->database(p).size(), serial_sys->database(p).size());
    }
    eng.stop();
}

TEST(Engine, BulkSubmitBatchesOfEverySizeMatchSerialOracle)
{
    // The same kind of stream cut into batches of 1..37 requests,
    // including batches that touch only some workers: the grouping
    // must never reorder a port's requests across batch boundaries.
    constexpr unsigned kPorts = 6;
    const auto stream = mixedPortStream(kPorts, 1200, 0x5e9);
    auto serial_sys = buildLoaded(kPorts, 40);
    const auto reference = executeSerially(*serial_sys, stream);

    auto sys = buildLoaded(kPorts, 40);
    ParallelSearchEngine eng(*sys, smallQueueConfig());
    eng.start();
    std::size_t next = 0;
    for (std::size_t len = 1; next < stream.size(); len = len % 37 + 1) {
        const std::size_t n = std::min(len, stream.size() - next);
        ASSERT_EQ(eng.submitBatch(std::span<const PortRequest>(
                      stream.data() + next, n)),
                  n);
        next += n;
    }
    eng.drain();
    expectMatchesReference(eng, reference);
    eng.stop();
}

TEST(Engine, BulkSubmitConcurrentProducersMatchSerialOracle)
{
    // Three producers, each owning two ports on different workers,
    // submit their streams in batches concurrently -- so every worker's
    // queue takes interleaved segments from two producers.  Each port's
    // stream still comes from one producer in order, so it must match
    // the oracle exactly.
    constexpr unsigned kPorts = 6;
    constexpr unsigned kProducers = 3;
    std::vector<std::vector<PortRequest>> streams;
    std::vector<PortRequest> combined;
    for (unsigned t = 0; t < kProducers; ++t) {
        // Producer t owns ports 2t and 2t + 1 (workers 2t % 3 and
        // (2t + 1) % 3).
        auto s = mixedPortStream(2, 900, 0x9a0 + t, t * 10000);
        for (PortRequest &req : s)
            req.port += 2 * t;
        combined.insert(combined.end(), s.begin(), s.end());
        streams.push_back(std::move(s));
    }
    auto serial_sys = buildLoaded(kPorts, 40);
    const auto reference = executeSerially(*serial_sys, combined);

    auto sys = buildLoaded(kPorts, 40);
    ParallelSearchEngine eng(*sys, smallQueueConfig());
    eng.start();
    std::vector<std::thread> producers;
    for (unsigned t = 0; t < kProducers; ++t) {
        producers.emplace_back([&, t] {
            const std::vector<PortRequest> &s = streams[t];
            for (std::size_t next = 0; next < s.size(); next += 50) {
                const std::size_t n =
                    std::min<std::size_t>(50, s.size() - next);
                EXPECT_EQ(eng.submitBatch(std::span<const PortRequest>(
                              s.data() + next, n)),
                          n);
            }
        });
    }
    for (auto &t : producers)
        t.join();
    eng.drain();
    expectMatchesReference(eng, reference);
    eng.stop();
}

TEST(Engine, BulkSubmitRollsBackWhatAStopLeftUnqueued)
{
    // Never started, so nothing drains the 4-deep queues: the producer
    // lands worker 0's first segment and blocks.  stop() closes the
    // queues under it; the batch returns what landed, and `submitted`
    // is rolled back to exactly that -- including port 1, whose worker
    // the batch never reached.
    auto sys = buildLoaded(2, 10);
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 4;
    ParallelSearchEngine eng(*sys, cfg);
    const auto stream = searchStream(2, 10);
    std::size_t accepted = 0;
    std::thread producer([&] { accepted = eng.submitBatch(stream); });
    while (eng.portStats(0).submitted.load() == 0)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    eng.stop();
    producer.join();
    EXPECT_EQ(accepted, 4u);
    EXPECT_EQ(eng.portStats(0).submitted.load(), 4u);
    EXPECT_EQ(eng.portStats(1).submitted.load(), 0u);
    EXPECT_EQ(eng.submitBatch(stream), 0u); // stopped: nothing lands
    EXPECT_EQ(eng.portStats(0).submitted.load(), 4u);
}

TEST(Engine, CompletedNeverRunsAheadOfFetchableResults)
{
    // Per-run publish: a port's `completed` count is raised only after
    // the run's responses are in its result stream, so a client that
    // watches the count (instead of calling drain()) can always fetch
    // as many responses as it has seen completions -- in order.
    constexpr unsigned kPorts = 6;
    const auto stream = mixedPortStream(kPorts, 1500, 0xfe7c);
    auto serial_sys = buildLoaded(kPorts, 40);
    const auto reference = executeSerially(*serial_sys, stream);

    auto sys = buildLoaded(kPorts, 40);
    ParallelSearchEngine eng(*sys, smallQueueConfig());
    eng.start();
    std::thread producer(
        [&] { EXPECT_EQ(eng.submitBatch(stream), stream.size()); });
    std::vector<std::size_t> fetched(kPorts, 0);
    std::size_t total = 0;
    bool in_step = true; // stop polling at the first miss, then join
    while (in_step && total < stream.size()) {
        for (unsigned p = 0; in_step && p < kPorts; ++p) {
            const uint64_t ready =
                eng.portStats(p).completed.load(std::memory_order_acquire);
            while (fetched[p] < ready) {
                const auto r = eng.fetchResult(p);
                if (!r || fetched[p] >= reference[p].size()) {
                    ADD_FAILURE() << "port " << p << ": completion "
                                  << fetched[p] + 1 << " not fetchable";
                    in_step = false;
                    break;
                }
                expectSameResponse(*r, reference[p][fetched[p]]);
                ++fetched[p];
                ++total;
            }
        }
    }
    producer.join();
    eng.stop();
    if (!in_step)
        return;
    for (unsigned p = 0; p < kPorts; ++p) {
        EXPECT_EQ(fetched[p], reference[p].size());
        EXPECT_FALSE(eng.fetchResult(p).has_value());
    }
}

} // namespace
} // namespace caram::engine
