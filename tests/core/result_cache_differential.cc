/**
 * @file
 * Randomized differential harness for the hot-key result cache
 * (EngineConfig::resultCacheEntries): mixed Search/Insert/Erase/
 * Rebuild streams run through an engine with the cache enabled,
 * against the strictly serial subsystem oracle executing the identical
 * stream in submission order with no cache at all.
 *
 * The contract under test: the cache changes *how fast* a repeated
 * search answers, never what it answers.  For every port, the cached
 * engine's FIFO response stream must equal the oracle's port-filtered
 * subsequence field for field (tag, ok, hit, data, key,
 * bucketsAccessed) -- including replayed bucketsAccessed on hits --
 * and the final tables must agree on every key the stream ever
 * touched.  Swept over binary probing, ternary multi-home with row
 * fan-out forced on, and LPM prefix tables, across worker counts x
 * batch widths, with the stream skewed toward a hot key set so the
 * cache actually fires (asserted via EngineReport::cacheHits).
 *
 * Also here: targeted generation-protocol tests (a mutation on the
 * port makes every older entry unservable; stale data is never
 * served), and a multi-threaded hammer that drives the raw ResultCache
 * API from concurrent fill/probe/invalidate threads with
 * self-checksumming payloads so TSan and the assertions catch torn
 * entries.  ci_tsan.sh runs this suite under TSan.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/subsystem.h"
#include "engine/parallel_search_engine.h"
#include "engine/result_cache.h"
#include "hash/bit_select.h"

namespace caram::engine {
namespace {

using core::CaRamSubsystem;
using core::DatabaseConfig;
using core::OverflowPolicy;
using core::PortOp;
using core::PortRequest;
using core::PortResponse;
using core::Record;
using core::SearchResult;

struct Variant
{
    const char *name;
    unsigned keyBits;
    unsigned indexBits;
    bool ternary;
    bool lpm;
    std::vector<unsigned> taps;
};

Variant
binaryVariant()
{
    return Variant{"binary", 32, 6, false, false, {0, 5, 11, 17, 22, 28}};
}

Variant
ternaryVariant()
{
    return Variant{"ternary", 40,    7,    true,
                   false,     {0, 5, 11, 17, 22, 28, 33}};
}

Variant
lpmVariant()
{
    // Prefix table: ternary keys with contiguous care from the top,
    // longest-prefix-match priority encoding, searched with fully
    // specified 32-bit addresses.
    return Variant{"lpm", 32, 6, true, true, {0, 3, 7, 11, 14, 18}};
}

DatabaseConfig
dbConfig(const Variant &v, const std::string &name)
{
    DatabaseConfig cfg;
    cfg.name = name;
    cfg.sliceShape.indexBits = v.indexBits;
    cfg.sliceShape.logicalKeyBits = v.keyBits;
    cfg.sliceShape.ternary = v.ternary;
    cfg.sliceShape.lpm = v.lpm;
    cfg.sliceShape.slotsPerBucket = 4;
    cfg.sliceShape.dataBits = 16;
    cfg.sliceShape.maxProbeDistance = 8;
    cfg.overflow = OverflowPolicy::Probing;
    const std::vector<unsigned> taps = v.taps;
    cfg.indexFactory = [taps](const core::SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        std::vector<unsigned> use(taps.begin(),
                                  taps.begin() + eff.indexBits);
        return std::make_unique<hash::BitSelectIndex>(
            eff.logicalKeyBits, std::move(use));
    };
    return cfg;
}

Key
randomKey(Rng &rng, const Variant &v, double care_p)
{
    if (v.lpm) {
        const auto addr = static_cast<uint32_t>(rng.next64());
        const auto len =
            static_cast<unsigned>(rng.inRange(8, v.keyBits));
        return Key::prefix(addr, len, v.keyBits);
    }
    Key k(v.keyBits);
    for (unsigned p = 0; p < v.keyBits; ++p)
        k.setBitAt(p, rng.chance(0.5), !v.ternary || rng.chance(care_p));
    return k;
}

/** A fully specified key: an LPM search address, or a plain replay. */
Key
randomAddress(Rng &rng, const Variant &v)
{
    if (v.lpm) {
        return Key::prefix(static_cast<uint32_t>(rng.next64()),
                           v.keyBits, v.keyBits);
    }
    return randomKey(rng, v, 1.0);
}

std::unique_ptr<CaRamSubsystem>
buildSubsystem(const Variant &v, unsigned nports, const char *tag)
{
    auto sys = std::make_unique<CaRamSubsystem>(1024, 1024, true);
    Rng rng(4242);
    for (unsigned p = 0; p < nports; ++p) {
        auto &db = sys->addDatabase(dbConfig(
            v, std::string(v.name) + "-" + tag + std::to_string(p)));
        for (int i = 0; i < 60; ++i) {
            const Key k = randomKey(rng, v, 0.97);
            db.insert(Record{k, static_cast<uint64_t>(i)},
                      v.lpm ? static_cast<int>(k.carePopcount()) : 0);
        }
    }
    return sys;
}

/**
 * A seeded mixed stream over @p nports ports, skewed so the cache
 * fires: half the searches replay a small hot set of earlier keys
 * (repeat traffic the cache should absorb between mutations), the
 * rest are fresh draws; ~10% inserts, ~6% erases, ~2% rebuilds churn
 * the tables so generation invalidation is constantly exercised.
 */
std::vector<PortRequest>
mixedStream(const Variant &v, unsigned nports, std::size_t total,
            uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<Key>> inserted(nports);
    std::vector<std::vector<Key>> hot(nports);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (std::size_t i = 0; i < total; ++i) {
        PortRequest req;
        req.port = static_cast<unsigned>(rng.below(nports));
        req.tag = ++tag;
        auto &pop = inserted[req.port];
        auto &hot_keys = hot[req.port];
        const double roll = rng.uniform();
        if (roll < 0.10) {
            req.op = PortOp::Insert;
            req.key = randomKey(rng, v, 0.97);
            req.data = rng.below(1u << 16);
            if (v.lpm)
                req.priority = static_cast<int>(req.key.carePopcount());
            pop.push_back(req.key);
        } else if (roll < 0.16 && !pop.empty()) {
            req.op = PortOp::Erase;
            req.key = pop[rng.below(pop.size())];
        } else if (roll < 0.18) {
            req.op = PortOp::Rebuild;
        } else {
            req.op = PortOp::Search;
            if (hot_keys.size() < 12) {
                hot_keys.push_back(v.lpm || !rng.chance(0.5) ||
                                           pop.empty()
                                       ? randomAddress(rng, v)
                                       : pop[rng.below(pop.size())]);
            }
            req.key = rng.chance(0.5)
                ? hot_keys[rng.below(hot_keys.size())]
                : randomAddress(rng, v);
            if (v.ternary && !v.lpm && rng.chance(0.35)) {
                const unsigned clear =
                    static_cast<unsigned>(rng.inRange(1, 3));
                for (unsigned c = 0; c < clear; ++c)
                    req.key.setBitAt(v.taps[rng.below(v.taps.size())],
                                     false, false);
            }
        }
        stream.push_back(std::move(req));
    }
    return stream;
}

/** Execute the stream strictly serially, in submission order. */
std::vector<std::vector<PortResponse>>
serialOracle(CaRamSubsystem &sys, const std::vector<PortRequest> &stream)
{
    std::vector<std::vector<PortResponse>> per_port(sys.databaseCount());
    for (const PortRequest &req : stream)
        per_port[req.port].push_back(
            core::executePortRequest(sys.database(req.port), req));
    return per_port;
}

void
expectSameResponse(const PortResponse &got, const PortResponse &want,
                   std::size_t index)
{
    ASSERT_EQ(got.tag, want.tag) << "port " << want.port << " response "
                                 << index;
    EXPECT_EQ(got.op, want.op);
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.hit, want.hit);
    EXPECT_EQ(got.data, want.data);
    EXPECT_EQ(got.bucketsAccessed, want.bucketsAccessed);
    EXPECT_TRUE(got.key == want.key);
}

void
runDifferential(const Variant &v, unsigned nports, unsigned workers,
                std::size_t batch_size, unsigned fanout_min,
                uint64_t seed)
{
    SCOPED_TRACE(::testing::Message()
                 << "variant " << v.name << " workers " << workers
                 << " batch " << batch_size << " fanoutMin "
                 << fanout_min << " seed " << seed);
    auto oracle_sys = buildSubsystem(v, nports, "oracle");
    auto subject_sys = buildSubsystem(v, nports, "subject");
    const std::vector<PortRequest> stream =
        mixedStream(v, nports, 3000, seed);

    const auto want = serialOracle(*oracle_sys, stream);

    EngineConfig cfg;
    cfg.workers = workers;
    cfg.batchSize = batch_size;
    cfg.rowFanoutMin = fanout_min;
    cfg.resultCacheEntries = 4096;
    cfg.resultCacheWays = 4;
    ParallelSearchEngine eng(*subject_sys, cfg);
    eng.start();
    ASSERT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    eng.stop();

    // The hot-set replay must actually exercise the cache, and the
    // ~18% mutation mix must keep invalidating it.
    const EngineReport rep = eng.report();
    EXPECT_GT(rep.cacheHits, 0u);
    EXPECT_GT(rep.cacheMisses, 0u);
    EXPECT_GT(rep.cacheInvalidations, 0u);

    for (unsigned p = 0; p < nports; ++p) {
        std::vector<PortResponse> got;
        while (auto r = eng.fetchResult(p))
            got.push_back(std::move(*r));
        ASSERT_EQ(got.size(), want[p].size()) << "port " << p;
        for (std::size_t i = 0; i < got.size(); ++i) {
            expectSameResponse(got[i], want[p][i], i);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

    // Final tables agree record for record: a cached response never
    // masked a mutation.
    for (unsigned p = 0; p < nports; ++p) {
        auto &sdb = subject_sys->database(p);
        auto &odb = oracle_sys->database(p);
        ASSERT_EQ(sdb.size(), odb.size()) << "port " << p;
        for (const PortRequest &req : stream) {
            if (req.port != p || req.op == PortOp::Rebuild)
                continue;
            const auto a = sdb.search(req.key);
            const auto b = odb.search(req.key);
            ASSERT_EQ(a.hit, b.hit)
                << "port " << p << " key " << req.key.toString();
            if (a.hit) {
                ASSERT_EQ(a.data, b.data);
                ASSERT_TRUE(a.key == b.key);
            }
        }
    }
}

TEST(ResultCacheDifferential, BinaryInlineMode)
{
    // workers == 0: probe and fill run at submit time on the caller's
    // thread rather than on a worker.
    runDifferential(binaryVariant(), 4, 0, 1, 0, 0xcac4e001);
}

TEST(ResultCacheDifferential, BinaryTwoWorkersSerialRuns)
{
    runDifferential(binaryVariant(), 4, 2, 1, 0, 0xcac4e002);
}

TEST(ResultCacheDifferential, BinaryFourWorkersBatched)
{
    runDifferential(binaryVariant(), 6, 4, 8, 0, 0xcac4e003);
}

TEST(ResultCacheDifferential, TernaryFanout)
{
    // Row fan-out forced down to 2 homes: cached hits must short-cut
    // lookups whose misses route through the shard queue.
    runDifferential(ternaryVariant(), 4, 4, 8, 2, 0xcac4e004);
}

TEST(ResultCacheDifferential, LpmBatchedWorkers)
{
    runDifferential(lpmVariant(), 4, 2, 8, 0, 0xcac4e005);
}

TEST(ResultCacheDifferential, LpmMorePortsThanWorkers)
{
    runDifferential(lpmVariant(), 9, 2, 4, 0, 0xcac4e006);
}

TEST(ResultCacheDifferential, BlockingMutationPath)
{
    // The cache composes with mutations the owning worker executes in
    // place between its searches.
    const Variant v = binaryVariant();
    auto oracle_sys = buildSubsystem(v, 4, "oracle");
    auto subject_sys = buildSubsystem(v, 4, "subject");
    const auto stream = mixedStream(v, 4, 3000, 0xcac4e007);
    const auto want = serialOracle(*oracle_sys, stream);

    EngineConfig cfg;
    cfg.workers = 2;
    cfg.batchSize = 8;
    cfg.resultCacheEntries = 4096;
    ParallelSearchEngine eng(*subject_sys, cfg);
    eng.start();
    ASSERT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    eng.stop();
    EXPECT_GT(eng.report().cacheHits, 0u);
    for (unsigned p = 0; p < 4; ++p) {
        std::vector<PortResponse> got;
        while (auto r = eng.fetchResult(p))
            got.push_back(std::move(*r));
        ASSERT_EQ(got.size(), want[p].size()) << "port " << p;
        for (std::size_t i = 0; i < got.size(); ++i)
            expectSameResponse(got[i], want[p][i], i);
    }
}

// ---------------------------------------------------------------------
// Targeted generation-protocol tests (inline engine, one port).

struct CacheFixture
{
    Variant v = binaryVariant();
    std::unique_ptr<CaRamSubsystem> sys;
    std::unique_ptr<ParallelSearchEngine> eng;
    Rng rng{99};
    uint64_t tag = 0;

    explicit CacheFixture(std::size_t cache_entries = 1024)
    {
        sys = buildSubsystem(v, 1, "t");
        EngineConfig cfg;
        cfg.workers = 0; // inline: responses available immediately
        cfg.resultCacheEntries = cache_entries;
        eng = std::make_unique<ParallelSearchEngine>(*sys, cfg);
        eng->start();
    }

    PortResponse
    run(PortOp op, const Key &key, uint64_t data = 0)
    {
        PortRequest req;
        req.port = 0;
        req.op = op;
        req.key = key;
        req.data = data;
        req.tag = ++tag;
        EXPECT_TRUE(eng->submitRequest(req));
        auto resp = eng->fetchResult(0);
        EXPECT_TRUE(resp.has_value());
        return *resp;
    }
};

TEST(ResultCacheGeneration, RepeatSearchHitsUntilRowMutation)
{
    CacheFixture f;
    const Key k = randomKey(f.rng, f.v, 1.0);
    f.run(PortOp::Insert, k, 777);

    const PortResponse first = f.run(PortOp::Search, k);
    EXPECT_TRUE(first.hit);
    EXPECT_EQ(first.data, 777u);
    EXPECT_EQ(f.eng->report().cacheHits, 0u);

    const PortResponse second = f.run(PortOp::Search, k);
    EXPECT_EQ(f.eng->report().cacheHits, 1u);
    EXPECT_EQ(second.hit, first.hit);
    EXPECT_EQ(second.data, first.data);
    EXPECT_EQ(second.bucketsAccessed, first.bucketsAccessed);
    EXPECT_TRUE(second.key == first.key);

    // Invalidation is row-granular: a mutation whose home row shares
    // no cache region with k's candidate rows leaves the cached entry
    // servable.  (This fixture has 64 rows, so region == row.)
    std::vector<uint64_t> scratch;
    auto &db = f.sys->database(0);
    const uint64_t mask_k = db.searchRegionMask(k, scratch);
    ASSERT_NE(mask_k, 0u);
    Key cold = randomKey(f.rng, f.v, 1.0);
    while ((db.searchRegionMask(cold, scratch) & mask_k) != 0)
        cold = randomKey(f.rng, f.v, 1.0);
    f.run(PortOp::Insert, cold, 1);
    uint64_t hits = f.eng->report().cacheHits;
    f.run(PortOp::Search, k);
    EXPECT_EQ(f.eng->report().cacheHits, hits + 1)
        << "cold-row churn evicted a hot cached result";
    EXPECT_GE(f.eng->report().cacheInvalidations, 1u);

    // ...while a mutation that lands in a covered region kills it.
    Key warm = randomKey(f.rng, f.v, 1.0);
    while ((db.searchRegionMask(warm, scratch) & mask_k) == 0 ||
           warm == k)
        warm = randomKey(f.rng, f.v, 1.0);
    f.run(PortOp::Insert, warm, 2);
    hits = f.eng->report().cacheHits;
    f.run(PortOp::Search, k);
    EXPECT_EQ(f.eng->report().cacheHits, hits); // miss: region bumped

    // ...and the refill after the miss serves the next repeat again.
    f.run(PortOp::Search, k);
    EXPECT_EQ(f.eng->report().cacheHits, hits + 1);
}

TEST(ResultCacheGeneration, EraseNeverServesStaleHit)
{
    CacheFixture f;
    const Key k = randomKey(f.rng, f.v, 1.0);
    f.run(PortOp::Insert, k, 42);
    f.run(PortOp::Search, k);           // fill
    EXPECT_TRUE(f.run(PortOp::Search, k).hit); // cached hit
    f.run(PortOp::Erase, k);
    const PortResponse after = f.run(PortOp::Search, k);
    EXPECT_FALSE(after.hit) << "stale cached hit served after erase";
    f.run(PortOp::Insert, k, 43);
    EXPECT_EQ(f.run(PortOp::Search, k).data, 43u);
}

TEST(ResultCacheGeneration, RebuildInvalidates)
{
    CacheFixture f;
    const Key k = randomKey(f.rng, f.v, 1.0);
    f.run(PortOp::Search, k); // negative result is cached too
    f.run(PortOp::Search, k);
    EXPECT_EQ(f.eng->report().cacheHits, 1u);
    const uint64_t inv = f.eng->report().cacheInvalidations;
    f.run(PortOp::Rebuild, Key(f.v.keyBits));
    EXPECT_GT(f.eng->report().cacheInvalidations, inv);
    f.run(PortOp::Search, k);
    EXPECT_EQ(f.eng->report().cacheHits, 1u); // miss: gen moved on
}

TEST(ResultCacheGeneration, CachedHitChargesZeroModeledCycles)
{
    CacheFixture f;
    const Key k = randomKey(f.rng, f.v, 1.0);
    f.run(PortOp::Insert, k, 7);
    f.run(PortOp::Search, k); // fill (charged normally)
    const uint64_t cycles = f.eng->portStats(0).modeledCycles.load();
    for (int i = 0; i < 10; ++i)
        f.run(PortOp::Search, k);
    EXPECT_EQ(f.eng->report().cacheHits, 10u);
    EXPECT_EQ(f.eng->portStats(0).modeledCycles.load(), cycles)
        << "cached hits must not accrue modeled bucket accesses";
}

TEST(ResultCacheGeneration, DisabledByDefaultAndByExplicitZero)
{
    Variant v = binaryVariant();
    auto sys = buildSubsystem(v, 1, "d");
    EngineConfig cfg;
    cfg.workers = 0;
    ASSERT_FALSE(cfg.resultCacheEntries.has_value());
    {
        ParallelSearchEngine eng(*sys, cfg);
        // Environment-independent only when CARAM_RESULT_CACHE_ENTRIES
        // is unset; the forced-cache CI leg uses the explicit-0 pin
        // below instead of this expectation.
        if (!std::getenv("CARAM_RESULT_CACHE_ENTRIES")) {
            EXPECT_EQ(eng.resolvedResultCacheEntries(), 0u);
        }
    }
    cfg.resultCacheEntries = 0; // explicit off wins over the env knob
    ParallelSearchEngine eng(*sys, cfg);
    EXPECT_EQ(eng.resolvedResultCacheEntries(), 0u);
}

// ---------------------------------------------------------------------
// Multi-threaded hammer over the raw ResultCache API.

/** A fully specified 32-bit key encoding @p v. */
Key
keyOf(uint32_t v)
{
    return Key::prefix(v, 32, 32);
}

/** The self-checksummed result for key @p v: every payload field is a
 *  function of v, so a torn entry cannot pass the probe-side check. */
SearchResult
resultOf(uint32_t v)
{
    SearchResult r;
    r.hit = true;
    r.data = uint64_t{v} * 0x9e3779b9u + 1;
    r.key = keyOf(v ^ 0x5a5a5a5au);
    r.bucketsAccessed = 1 + (v & 7);
    return r;
}

TEST(ResultCacheHammer, ConcurrentFillProbeInvalidate)
{
    // 2 ports x 64 sets x 4 ways; port 0 churns under an invalidator
    // thread, port 1 runs fill/probe only so probes are guaranteed to
    // succeed often enough to validate payloads.
    ResultCache cache(1024, 4, 2);
    constexpr uint32_t kKeys = 512;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> validated{0};
    std::atomic<bool> corrupt{false};

    auto filler = [&](unsigned port, uint64_t seed) {
        Rng rng(seed);
        while (!stop.load(std::memory_order_relaxed)) {
            const auto v = static_cast<uint32_t>(rng.below(kKeys));
            const uint64_t gen = cache.generation(port);
            cache.fill(port, keyOf(v), resultOf(v), gen);
        }
    };
    auto prober = [&](unsigned port, uint64_t seed) {
        Rng rng(seed);
        while (!stop.load(std::memory_order_relaxed)) {
            const auto v = static_cast<uint32_t>(rng.below(kKeys));
            SearchResult out;
            if (!cache.probe(port, keyOf(v), out))
                continue;
            const SearchResult want = resultOf(v);
            if (out.hit != want.hit || out.data != want.data ||
                out.bucketsAccessed != want.bucketsAccessed ||
                !(out.key == want.key)) {
                corrupt.store(true);
                stop.store(true);
                return;
            }
            validated.fetch_add(1, std::memory_order_relaxed);
        }
    };
    auto invalidator = [&] {
        while (!stop.load(std::memory_order_relaxed))
            cache.invalidate(0);
    };

    std::vector<std::thread> threads;
    for (unsigned port = 0; port < 2; ++port) {
        threads.emplace_back(filler, port, 11 + port);
        threads.emplace_back(filler, port, 31 + port);
        threads.emplace_back(prober, port, 51 + port);
        threads.emplace_back(prober, port, 71 + port);
    }
    threads.emplace_back(invalidator);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
    for (auto &t : threads)
        t.join();

    EXPECT_FALSE(corrupt.load()) << "torn or mismatched entry served";
    EXPECT_GT(validated.load(), 0u);
}

TEST(ResultCacheUnit, GeometryClampsAndPartitions)
{
    // 1024 entries over 4 ports at 4 ways -> 64 sets per port.
    ResultCache cache(1024, 4, 4);
    EXPECT_EQ(cache.setsPerPort(), 64u);
    EXPECT_EQ(cache.wayCount(), 4u);
    EXPECT_EQ(cache.entryCount(), 1024u);

    // A tiny budget still gives every port one set; ways clamp to the
    // entry layout bound.
    ResultCache tiny(1, 32, 3);
    EXPECT_EQ(tiny.setsPerPort(), 1u);
    EXPECT_EQ(tiny.wayCount(), ResultCache::kMaxWays);

    // Non-power-of-two budgets round down per port.
    ResultCache odd(1000, 4, 4);
    EXPECT_EQ(odd.setsPerPort(), 32u);
}

TEST(ResultCacheUnit, PortsAreIsolated)
{
    ResultCache cache(256, 4, 2);
    const Key k = keyOf(7);
    cache.fill(0, k, resultOf(7), cache.generation(0));
    SearchResult out;
    EXPECT_TRUE(cache.probe(0, k, out));
    EXPECT_FALSE(cache.probe(1, k, out))
        << "fill on port 0 visible through port 1";
    // Invalidating port 1 must not disturb port 0's entries.
    cache.invalidate(1);
    EXPECT_TRUE(cache.probe(0, k, out));
    cache.invalidate(0);
    EXPECT_FALSE(cache.probe(0, k, out));
}

TEST(ResultCacheUnit, InvalidationCountersClassifyPaths)
{
    // The observability counters split invalidations into the precise
    // region path vs whole-port bumps (explicit invalidate() and the
    // full-coverage degradation); a zero mask counts as neither.
    ResultCache cache(256, 4, 2);
    EXPECT_EQ(cache.wholePortInvalidations(), 0u);
    EXPECT_EQ(cache.regionInvalidations(), 0u);
    cache.invalidateRegions(0, 0b101);
    EXPECT_EQ(cache.regionInvalidations(), 1u);
    EXPECT_EQ(cache.wholePortInvalidations(), 0u);
    cache.invalidateRegions(0, 0); // dirtied nothing: no-op
    EXPECT_EQ(cache.regionInvalidations(), 1u);
    cache.invalidateRegions(1, ~uint64_t{0}); // degrades to whole-port
    EXPECT_EQ(cache.wholePortInvalidations(), 1u);
    EXPECT_EQ(cache.regionInvalidations(), 1u);
    cache.invalidate(0);
    EXPECT_EQ(cache.wholePortInvalidations(), 2u);
    EXPECT_EQ(cache.regionInvalidations(), 1u);
}

// ---------------------------------------------------------------------
// Overflow-area region precision (Database::noteOverflowMutation):
// writes that land in the parallel overflow slice dirty the spilling
// key's *main-slice* regions instead of degrading the whole port.

/** 64-row low-bits-indexed binary table with a tiny parallel overflow
 *  slice; 2-slot buckets and no probing, so a bucket's third key
 *  spills to the overflow area. */
DatabaseConfig
overflowDbConfig(const std::string &name)
{
    DatabaseConfig cfg;
    cfg.name = name;
    cfg.sliceShape.indexBits = 6;
    cfg.sliceShape.logicalKeyBits = 32;
    cfg.sliceShape.ternary = false;
    cfg.sliceShape.slotsPerBucket = 2;
    cfg.sliceShape.dataBits = 16;
    cfg.sliceShape.maxProbeDistance = 0;
    cfg.overflow = OverflowPolicy::ParallelSlice;
    cfg.overflowIndexBits = 2;
    cfg.overflowSlots = 4;
    cfg.indexFactory = [](const core::SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        return std::make_unique<hash::LowBitsIndex>(eff.logicalKeyBits,
                                                    eff.indexBits);
    };
    return cfg;
}

/** A key homing to @p bucket (low bits), distinguished by @p salt. */
Key
lowBitsKey(unsigned bucket, unsigned salt)
{
    return Key::fromUint((salt << 6) | bucket, 32);
}

TEST(OverflowRegionPrecision, OverflowMutationsDirtyPreciseRegions)
{
    auto sys = std::make_unique<CaRamSubsystem>(1024, 1024, true);
    auto &db = sys->addDatabase(overflowDbConfig("overflow-regions"));
    std::vector<uint64_t> scratch;

    // Lookup coverage on an overflow-area table is the main slice's
    // candidate rows -- not the pre-fix ~0 whole-port degradation.
    const uint64_t mask_a = db.searchRegionMask(lowBitsKey(9, 1), scratch);
    const uint64_t mask_b = db.searchRegionMask(lowBitsKey(40, 1), scratch);
    EXPECT_NE(mask_a, 0u);
    EXPECT_NE(mask_a, ~uint64_t{0});
    EXPECT_EQ(mask_a & mask_b, 0u) << "distant buckets share coverage";

    ASSERT_TRUE(db.insert(Record{lowBitsKey(9, 1), 1}));
    ASSERT_TRUE(db.insert(Record{lowBitsKey(9, 2), 2}));
    (void)db.takeDirtyRegionMask(); // drain the setup's dirt

    // The third bucket-9 key spills to the overflow slice; the dirt it
    // leaves must cover exactly the spilling key's main regions.
    ASSERT_TRUE(db.insert(Record{lowBitsKey(9, 3), 3}));
    ASSERT_EQ(db.overflowEntries(), 1u);
    uint64_t dirty = db.takeDirtyRegionMask();
    EXPECT_NE(dirty, 0u) << "overflow insert left no dirt";
    EXPECT_NE(dirty, ~uint64_t{0});
    EXPECT_NE(dirty & mask_a, 0u);
    EXPECT_EQ(dirty & mask_b, 0u) << "overflow insert dirtied a "
                                     "bucket it cannot affect";

    // Same for an erase that removes the overflow copy.
    ASSERT_EQ(db.erase(lowBitsKey(9, 3)), 1u);
    ASSERT_EQ(db.overflowEntries(), 0u);
    dirty = db.takeDirtyRegionMask();
    EXPECT_NE(dirty, 0u) << "overflow erase left no dirt";
    EXPECT_NE(dirty, ~uint64_t{0});
    EXPECT_NE(dirty & mask_a, 0u);
    EXPECT_EQ(dirty & mask_b, 0u);
}

TEST(OverflowRegionPrecision, HotKeysSurviveOverflowChurnOnColdRows)
{
    // Before noteOverflowMutation(), *every* mutation on an
    // overflow-area table invalidated the whole port, so a hot key
    // could never stay cached under churn.  Now overflow writes dirty
    // only the spilling key's regions: churn confined to bucket 9 must
    // leave a hot key in bucket 40 hitting on every repeat.
    auto sys = std::make_unique<CaRamSubsystem>(1024, 1024, true);
    auto &db = sys->addDatabase(overflowDbConfig("overflow-hot"));
    const Key hot = lowBitsKey(40, 1);
    ASSERT_TRUE(db.insert(Record{hot, 77}));
    ASSERT_TRUE(db.insert(Record{lowBitsKey(9, 1), 1}));
    ASSERT_TRUE(db.insert(Record{lowBitsKey(9, 2), 2})); // bucket full
    // Drain the setup's dirt: otherwise the first engine mutation run
    // inherits the hot key's own setup-insert regions and evicts the
    // first fill.
    (void)db.takeDirtyRegionMask();

    uint64_t tag = 0;
    std::vector<PortRequest> stream;
    auto push = [&](PortOp op, const Key &key, uint64_t data = 0) {
        PortRequest req;
        req.port = 0;
        req.op = op;
        req.key = key;
        req.data = data;
        req.tag = ++tag;
        stream.push_back(std::move(req));
    };
    push(PortOp::Search, hot); // fill
    constexpr unsigned kRounds = 50;
    for (unsigned i = 0; i < kRounds; ++i) {
        // Every round writes the overflow slice twice (spill + erase)
        // and re-asks the hot key.
        push(PortOp::Insert, lowBitsKey(9, 3 + i), i);
        push(PortOp::Erase, lowBitsKey(9, 3 + i));
        push(PortOp::Search, hot);
    }

    EngineConfig cfg;
    cfg.workers = 2;
    cfg.resultCacheEntries = 1024;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    ASSERT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    eng.stop();

    std::size_t hot_hits = 0;
    while (auto r = eng.fetchResult(0)) {
        if (r->op == PortOp::Search) {
            EXPECT_TRUE(r->hit);
            EXPECT_EQ(r->data, 77u);
            ++hot_hits;
        }
    }
    EXPECT_EQ(hot_hits, kRounds + 1u);
    const EngineReport rep = eng.report();
    EXPECT_EQ(rep.cacheHits, kRounds)
        << "overflow churn on bucket 9 evicted the bucket-40 hot key";
    EXPECT_EQ(rep.cacheWholePortInvalidations, 0u)
        << "an overflow write degraded to a whole-port bump";
    EXPECT_GT(rep.cacheRegionInvalidations, 0u);
}

} // namespace
} // namespace caram::engine
