/** @file Tests for engine::ParallelSearchEngine. */

#include "engine/parallel_search_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <string>
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

/** Drain a subsystem serially, returning per-port response streams. */
std::vector<std::vector<PortResponse>>
serialReference(CaRamSubsystem &sys,
                const std::vector<PortRequest> &stream)
{
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
    // one behind the prefetch pipeline at every popped-batch width
    // (drainBatch), and the result streams stay bit-identical to
    // serial.
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

    for (std::size_t batch : {1u, 8u, 32u, 64u}) {
        auto sys = buildLoaded(2, 150);
        EngineConfig cfg;
        cfg.workers = 2;
        cfg.drainBatch = batch;
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
    // Insert/search/erase interleaved inside each popped batch: every
    // request runs in its port's order, so the database evolution stays
    // serial-identical whatever the batch width.
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
    cfg.drainBatch = 16;
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
    cfg.drainBatch = 32;
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
    // Bursty insert trains popped in batches of up to 32: the stored
    // tables and the response streams must stay bit-identical to
    // serial execution.
    const auto stream = insertStream(2, 500, 17);
    auto serial_sys = buildLoaded(2, 0);
    const auto reference = serialReference(*serial_sys, stream);

    auto sys = buildLoaded(2, 0);
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.drainBatch = 32;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    EXPECT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    expectMatchesReference(eng, reference);
    eng.stop();

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
    // the popped-batch width: bursts of one key are charged one chain
    // walk per request, exactly as in batches of one (no hints), and
    // the hints change neither responses nor bucketsAccessed.
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
    const auto reference = serialReference(*serial_sys, stream);
    uint64_t serial_accesses = 0;
    for (const PortResponse &r : reference[0])
        serial_accesses += std::max(1u, r.bucketsAccessed);
    auto run = [&](std::size_t batch) {
        auto sys = buildLoaded(1, 150);
        EngineConfig cfg;
        cfg.workers = 1;
        cfg.drainBatch = batch;
        cfg.queueCapacity = stream.size() + 1;
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
    cfg.drainBatch = 1; // ignored: inline executes at submit time
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

TEST(Engine, ConcurrentMutationMixedOperationsMatchSerial)
{
    // Mutations executed in place by the port's owner, between
    // searches and around rebuilds: the same kind of mixed stream as
    // MixedOperationsMatchSerial, on two workers popping batches of 4,
    // still reproduces the serial per-port FIFO streams and final
    // tables bit for bit.
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
    cfg.drainBatch = 4;
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

TEST(Engine, ResultCacheEntriesShimChangesNothing)
{
    // resultCacheEntries is an ignored field: an engine built with the
    // 65,536 entries a benchmark configuration sets answers a
    // repeat-heavy mixed stream exactly as the default engine does --
    // the same responses, the same bucketsAccessed histograms and the
    // same modeled cycles (every repeat walks its chain) -- and reports
    // no cache activity.
    Rng rng(65536);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (std::size_t i = 0; i < 1200; ++i) {
        PortRequest req;
        req.port = static_cast<unsigned>(rng.below(2));
        req.key = Key::fromUint(rng.below(24) * 977u + req.port, 32);
        req.tag = ++tag;
        const uint64_t pick = rng.below(20);
        req.op = pick < 17 ? PortOp::Search
                 : pick < 19 ? PortOp::Insert
                             : PortOp::Erase;
        req.data = i & 0xffff;
        stream.push_back(std::move(req));
    }
    struct Run
    {
        std::vector<std::vector<PortResponse>> perPort;
        std::vector<std::vector<uint64_t>> histograms;
        std::vector<uint64_t> cycles;
        EngineReport rep;
        std::size_t resolved = 0;
    };
    auto run = [&](const EngineConfig &cfg) {
        auto sys = buildLoaded(2, 60);
        ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        EXPECT_EQ(eng.submitBatch(stream), stream.size());
        eng.drain();
        eng.stop();
        Run out;
        out.perPort.resize(2);
        for (unsigned p = 0; p < 2; ++p) {
            while (auto r = eng.fetchResult(p))
                out.perPort[p].push_back(std::move(*r));
            out.histograms.push_back(
                eng.portStats(p).bucketsAccessed.bins());
            out.cycles.push_back(eng.portStats(p).modeledCycles.load());
        }
        out.rep = eng.report();
        out.resolved = eng.resolvedResultCacheEntries();
        return out;
    };
    EngineConfig plain;
    plain.workers = 1;
    EngineConfig shim = plain;
    shim.resultCacheEntries = 65536;
    const Run a = run(plain);
    const Run b = run(shim);
    EXPECT_EQ(b.resolved, 0u);
    EXPECT_EQ(b.rep.cacheHits, 0u);
    EXPECT_EQ(b.rep.cacheMisses, 0u);
    EXPECT_EQ(b.rep.cacheInvalidations, 0u);
    for (unsigned p = 0; p < 2; ++p) {
        ASSERT_EQ(a.perPort[p].size(), b.perPort[p].size()) << "port " << p;
        for (std::size_t i = 0; i < a.perPort[p].size(); ++i)
            expectSameResponse(b.perPort[p][i], a.perPort[p][i]);
        EXPECT_EQ(a.histograms[p], b.histograms[p]) << "port " << p;
        EXPECT_EQ(a.cycles[p], b.cycles[p]) << "port " << p;
    }
    EXPECT_EQ(a.rep.modeledMsps, b.rep.modeledMsps);
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
 *  submission order, collected per port. */
std::vector<std::vector<PortResponse>>
executeSerially(CaRamSubsystem &sys, const std::vector<PortRequest> &stream)
{
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
