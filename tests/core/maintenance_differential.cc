/**
 * @file
 * Randomized differential harness for the online maintenance engine
 * (EngineConfig::maintenance, engine/maintenance_engine.h): mixed
 * Search/Insert/Erase/Rebuild streams run through a multi-worker
 * engine while the background planner migrates spilled records,
 * adopts overflow-slice entries and trims hollowed-out reaches on the
 * same tables, against the strictly serial subsystem oracle executing
 * the identical stream with no maintenance at all.
 *
 * The contract under test: maintenance changes *where* records live
 * and how many buckets a lookup walks, never what any request answers.
 * So for every port, the engine's FIFO response stream must equal the
 * oracle's port-filtered subsequence field for field (tag, op, ok,
 * hit, data, key) -- bucketsAccessed is deliberately EXCLUDED on
 * these legs, because shortening probe chains is the whole point of
 * maintenance -- and the final tables must agree record for record on
 * every key the stream ever touched.  The streams keep the tables at
 * moderate load so no insert can fail in either world (a full probe
 * window is the one way a placement difference could leak into an
 * `ok` bit); the oracle's insert responses are asserted all-ok to
 * keep that precondition visible.  All insert data is a deterministic
 * function of the key (the keyed-table discipline the migration
 * protocol's result-invariance argument rests on).
 *
 * The online suite below the differential pins the individual
 * maintenance actions deterministically: AMAL recovery to within 5%
 * of a fresh rebuild() with zero drains, overflow adoption emptying a
 * victim slice, reach trimming after tail erases, torn-migration
 * fault injection (CARAM_SEQLOCK_TEAR hook interrupting phase 2
 * mid-step) with the transient duplicate provably retired, and cache
 * survival of hot keys while maintenance compacts cold rows.
 * ci_tsan.sh runs this suite under TSan; ci_build_matrix.sh leg 8
 * reruns the whole test suite with CARAM_MAINTENANCE=1.
 */

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/subsystem.h"
#include "engine/parallel_search_engine.h"
#include "hash/bit_select.h"

namespace caram::engine {
namespace {

using core::CaRamSubsystem;
using core::Database;
using core::DatabaseConfig;
using core::OverflowPolicy;
using core::PortOp;
using core::PortRequest;
using core::PortResponse;
using core::Record;

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
    // longest-prefix-match priority, searched with full addresses.
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

/** Deterministic data for a key: migration moves copies between slots,
 *  so result invariance requires equal keys to carry equal data --
 *  derive the payload from the key (value, care and width) itself. */
uint64_t
dataFor(const Key &k)
{
    uint64_t h = 0x9e3779b97f4a7c15ull ^ k.bits();
    auto mix = [](uint64_t z) {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    for (const uint64_t w : k.valueWords())
        h = mix(h ^ w);
    for (const uint64_t w : k.careWords())
        h = mix(h ^ w);
    return h & 0xffffu; // dataBits = 16
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

/** A fully specified key: an LPM search address, or a plain draw. */
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
        // A seeded base population so early searches, erases -- and the
        // maintenance sweeps -- find live chains from the first step.
        for (int i = 0; i < 60; ++i) {
            const Key k = randomKey(rng, v, 0.97);
            db.insert(Record{k, dataFor(k)},
                      v.lpm ? static_cast<int>(k.carePopcount()) : 0);
        }
    }
    return sys;
}

/**
 * A seeded mixed stream over @p nports ports.  Insert keys are drawn
 * near-fully-specified with key-derived data; erase and half the
 * search keys replay earlier inserts so mutations keep opening holes
 * in live chains (migration targets); ternary search keys sometimes
 * widen a tap to fan out across homes.
 */
std::vector<PortRequest>
mixedStream(const Variant &v, unsigned nports, std::size_t total,
            uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<Key>> inserted(nports);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (std::size_t i = 0; i < total; ++i) {
        PortRequest req;
        req.port = static_cast<unsigned>(rng.below(nports));
        req.tag = ++tag;
        auto &pop = inserted[req.port];
        const double roll = rng.uniform();
        if (roll < 0.10) {
            req.op = PortOp::Insert;
            req.key = randomKey(rng, v, 0.97);
            req.data = dataFor(req.key);
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
            req.key = !pop.empty() && rng.chance(0.5)
                ? pop[rng.below(pop.size())]
                : randomAddress(rng, v);
            if (v.ternary && !v.lpm && rng.chance(0.35)) {
                // Widen 1-3 taps: multi-home lookups interleaving with
                // the maintenance steps on the same rows.
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

/** Execute the stream strictly serially, in submission order.  The
 *  forced-filter CI leg (CARAM_PREFILTER=1) enables pre-filter
 *  consultation on the engine's slices only; mirror it onto the
 *  engine-less oracle so the two sides skip the same rows. */
std::vector<std::vector<PortResponse>>
serialOracle(CaRamSubsystem &sys, const std::vector<PortRequest> &stream)
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

/** Field-for-field equality EXCEPT bucketsAccessed: maintenance
 *  legitimately shortens (or, mid-migration, lengthens by the
 *  transient second copy's row) probe chains, so the access count is
 *  the one response field the contract lets drift. */
void
expectSameAnswer(const PortResponse &got, const PortResponse &want,
                 std::size_t index)
{
    ASSERT_EQ(got.tag, want.tag) << "port " << want.port << " response "
                                 << index;
    EXPECT_EQ(got.op, want.op);
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.hit, want.hit);
    EXPECT_EQ(got.data, want.data);
    EXPECT_TRUE(got.key == want.key);
}

/** Poll @p predicate on the live engine report until it holds or
 *  @p deadline_ms passes (the engine keeps running in between -- an
 *  idle engine executes maintenance steps back to back). */
template <typename Pred>
bool
awaitReport(ParallelSearchEngine &eng, Pred predicate,
            unsigned deadline_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
    while (!predicate(eng.report())) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

void
runDifferential(const Variant &v, unsigned nports, unsigned workers,
                std::size_t batch_size, unsigned fanout_min,
                uint64_t seed, unsigned writer_lanes = 0,
                bool combining = true,
                std::size_t cache_entries = 0)
{
    SCOPED_TRACE(::testing::Message()
                 << "variant " << v.name << " workers " << workers
                 << " batch " << batch_size << " fanoutMin "
                 << fanout_min << " lanes " << writer_lanes
                 << " combining " << combining << " cache "
                 << cache_entries << " seed " << seed);
    auto oracle_sys = buildSubsystem(v, nports, "oracle");
    auto subject_sys = buildSubsystem(v, nports, "subject");
    const std::vector<PortRequest> stream =
        mixedStream(v, nports, 3000, seed);

    const auto want = serialOracle(*oracle_sys, stream);

    // Moderate-load precondition: every oracle insert succeeded, so a
    // maintenance-induced placement difference cannot flip an `ok`.
    for (const auto &per_port : want) {
        for (const PortResponse &r : per_port) {
            if (r.op == PortOp::Insert) {
                ASSERT_TRUE(r.ok) << "oracle insert failed: raise the "
                                     "table capacity or lower the load";
            }
        }
    }

    EngineConfig cfg;
    cfg.workers = workers;
    cfg.batchSize = batch_size;
    cfg.concurrentMutation = true;
    cfg.rowFanoutMin = fanout_min;
    cfg.writerLanes = writer_lanes;
    cfg.writerCombining = combining;
    cfg.maintenance = true;
    if (cache_entries > 0)
        cfg.resultCacheEntries = cache_entries;
    ParallelSearchEngine eng(*subject_sys, cfg);
    ASSERT_TRUE(eng.resolvedMaintenance());
    eng.start();
    ASSERT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    // Idle dwell: with the foreground drained the planner steps back
    // to back, so the run provably included maintenance work.
    EXPECT_TRUE(awaitReport(
        eng, [](const EngineReport &r) { return r.maintenanceSteps > 0; },
        5000));
    eng.stop();

    for (unsigned p = 0; p < nports; ++p) {
        std::vector<PortResponse> got;
        while (auto r = eng.fetchResult(p))
            got.push_back(std::move(*r));
        ASSERT_EQ(got.size(), want[p].size()) << "port " << p;
        for (std::size_t i = 0; i < got.size(); ++i) {
            expectSameAnswer(got[i], want[p][i], i);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

    // Final tables agree record for record: maintenance moved copies
    // around, but every key the stream touched resolves identically,
    // the live counts match, and the subject slices pass the full
    // structural self-check (size counter, filter, reach metadata).
    for (unsigned p = 0; p < nports; ++p) {
        auto &sdb = subject_sys->database(p);
        auto &odb = oracle_sys->database(p);
        ASSERT_EQ(sdb.size(), odb.size()) << "port " << p;
        sdb.slice().checkIntegrity();
        if (sdb.overflowSlice() != nullptr)
            sdb.overflowSlice()->checkIntegrity();
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

TEST(MaintenanceDifferential, BinaryTwoWorkersSerialRuns)
{
    runDifferential(binaryVariant(), 4, 2, 1, 0, 0xadd01);
}

TEST(MaintenanceDifferential, BinaryFourWorkersBatched)
{
    runDifferential(binaryVariant(), 6, 4, 8, 0, 0xadd02);
}

TEST(MaintenanceDifferential, BinaryTwoLanesBatched)
{
    runDifferential(binaryVariant(), 6, 4, 8, 0, 0xadd03, 2, true);
}

TEST(MaintenanceDifferential, BinaryFourLanesNoCombining)
{
    runDifferential(binaryVariant(), 9, 4, 8, 0, 0xadd04, 4, false);
}

TEST(MaintenanceDifferential, BinaryLanesPlusResultCache)
{
    // Steps invalidate only the regions they dirty; cached hot keys
    // must still never replay a stale answer.
    runDifferential(binaryVariant(), 6, 4, 8, 0, 0xadd05, 2, true,
                    2048);
}

TEST(MaintenanceDifferential, TernaryFanoutTrimOnly)
{
    // Ternary tables get reach trimming only (migration is restricted
    // to fully specified keys); fan-out forced down to 2 homes so
    // shard stealing interleaves with the trim steps.
    runDifferential(ternaryVariant(), 4, 4, 8, 2, 0xadd06);
}

TEST(MaintenanceDifferential, TernaryFanoutFourLanesCombining)
{
    runDifferential(ternaryVariant(), 6, 4, 8, 2, 0xadd07, 4, true);
}

TEST(MaintenanceDifferential, LpmTwoWorkersBatched)
{
    runDifferential(lpmVariant(), 4, 2, 8, 0, 0xadd08);
}

TEST(MaintenanceDifferential, LpmTwoLanesResultCache)
{
    runDifferential(lpmVariant(), 6, 4, 8, 0, 0xadd09, 2, true, 2048);
}

// ---------------------------------------------------------------------
// Online suite: deterministic single-action scenarios.  These use a
// low-bits index so a key's home bucket is just its low bits -- chains
// and holes can be placed row by row.

DatabaseConfig
lowBitsConfig(const std::string &name, unsigned probe_distance,
              OverflowPolicy overflow = OverflowPolicy::Probing)
{
    DatabaseConfig cfg;
    cfg.name = name;
    cfg.sliceShape.indexBits = 6;
    cfg.sliceShape.logicalKeyBits = 32;
    cfg.sliceShape.ternary = false;
    cfg.sliceShape.slotsPerBucket = 4;
    cfg.sliceShape.dataBits = 16;
    cfg.sliceShape.maxProbeDistance = probe_distance;
    cfg.overflow = overflow;
    if (overflow == OverflowPolicy::ParallelSlice) {
        cfg.overflowIndexBits = 2;
        cfg.overflowSlots = 4;
    }
    cfg.indexFactory = [](const core::SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        return std::make_unique<hash::LowBitsIndex>(eff.logicalKeyBits,
                                                    eff.indexBits);
    };
    return cfg;
}

/** A key homing to @p bucket, distinguished by @p salt. */
Key
bucketKey(unsigned bucket, unsigned salt)
{
    return Key::fromUint((salt << 6) | bucket, 32);
}

/**
 * Skewed churn: pile @p per_bucket keys onto each of the first
 * @p buckets home buckets (deep linear chains), then erase every
 * other early key -- holes open close to the homes while the
 * survivors sit far out, so AMAL decays well above the fresh-build
 * value.  Returns the keys still live.
 */
std::vector<Key>
skewedChurn(Database &db, unsigned buckets, unsigned per_bucket)
{
    std::vector<Key> inserted;
    for (unsigned s = 0; s < per_bucket; ++s) {
        for (unsigned b = 0; b < buckets; ++b) {
            const Key k = bucketKey(b, s + 1);
            EXPECT_TRUE(db.insert(Record{k, dataFor(k)}));
            inserted.push_back(k);
        }
    }
    std::vector<Key> live;
    for (std::size_t i = 0; i < inserted.size(); ++i) {
        if (i % 2 == 0)
            EXPECT_EQ(db.erase(inserted[i]), 1u);
        else
            live.push_back(inserted[i]);
    }
    return live;
}

TEST(MaintenanceOnline, RecoversAmalAfterSkewedChurnWithoutDrain)
{
    // The acceptance gate: after skewed churn, background maintenance
    // alone -- no drain, no rebuild() -- must restore the table's AMAL
    // to within 5% of what a full offline repack achieves.
    auto sys = std::make_unique<CaRamSubsystem>(1024, 1024, true);
    auto &db = sys->addDatabase(lowBitsConfig("amal-subject", 16));
    const std::vector<Key> live = skewedChurn(db, 12, 6);
    const double amal_before = db.amal();

    // The offline reference: an identical twin, repacked wholesale.
    Database twin(lowBitsConfig("amal-twin", 16));
    skewedChurn(twin, 12, 6);
    ASSERT_TRUE(twin.rebuild().ok);
    const double amal_rebuilt = twin.amal();
    ASSERT_GT(amal_before, amal_rebuilt); // churn really decayed it

    EngineConfig cfg;
    cfg.workers = 2;
    cfg.maintenance = true;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    // No foreground traffic at all: the planner sweeps the idle table.
    ASSERT_TRUE(awaitReport(
        eng,
        [](const EngineReport &r) {
            return r.maintenanceSweeps >= 4 && r.rowsMigrated > 0;
        },
        10000))
        << "maintenance never completed a sweep";
    eng.stop();

    const EngineReport rep = eng.report();
    EXPECT_GT(rep.rowsMigrated, 0u);
    EXPECT_GT(rep.amalBefore, 0.0);
    EXPECT_GT(rep.amalAfter, 0.0);
    EXPECT_LE(rep.amalAfter, rep.amalBefore);

    const double amal_after = db.amal();
    EXPECT_LT(amal_after, amal_before);
    EXPECT_LE(amal_after, amal_rebuilt * 1.05)
        << "online maintenance left AMAL " << amal_after
        << " vs rebuilt " << amal_rebuilt;
    // The moves were real moves: every live record still resolves.
    db.slice().checkIntegrity();
    EXPECT_EQ(db.size(), live.size());
    for (const Key &k : live) {
        const auto r = db.search(k);
        ASSERT_TRUE(r.hit) << k.toString();
        EXPECT_EQ(r.data, dataFor(k));
    }
}

TEST(MaintenanceOnline, AdoptsOverflowRecordsBackIntoMainTable)
{
    // Five colliding keys on a 4-slot bucket with no probing: the
    // fifth lives in the parallel victim slice.  Erase one main-table
    // copy and the sweep must adopt the victim back, emptying the
    // overflow area without any drain.
    auto sys = std::make_unique<CaRamSubsystem>(1024, 1024, true);
    auto &db = sys->addDatabase(lowBitsConfig(
        "adopt", 0, OverflowPolicy::ParallelSlice));
    ASSERT_NE(db.overflowSlice(), nullptr);
    for (unsigned s = 0; s < 5; ++s) {
        const Key k = bucketKey(9, s + 1);
        ASSERT_TRUE(db.insert(Record{k, dataFor(k)}));
    }
    ASSERT_EQ(db.overflowEntries(), 1u);
    ASSERT_EQ(db.erase(bucketKey(9, 1)), 1u); // free a home slot

    EngineConfig cfg;
    cfg.workers = 1;
    cfg.maintenance = true;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    ASSERT_TRUE(awaitReport(
        eng,
        [](const EngineReport &r) { return r.overflowCompacted >= 1; },
        10000))
        << "overflow record never adopted";
    eng.stop();

    EXPECT_EQ(db.overflowEntries(), 0u);
    EXPECT_EQ(db.size(), 4u);
    db.slice().checkIntegrity();
    db.overflowSlice()->checkIntegrity();
    for (unsigned s = 1; s < 5; ++s) {
        const Key k = bucketKey(9, s + 1);
        const auto r = db.search(k);
        ASSERT_TRUE(r.hit) << s;
        EXPECT_EQ(r.data, dataFor(k));
    }
}

TEST(MaintenanceOnline, TrimsHollowedReachAfterTailErases)
{
    // Fill row 6 with bucket-6 keys, then pile five keys onto bucket 5
    // so the fifth spills past the full row 6 to distance 2.  Erasing
    // that tail key leaves reach(5) == 2 stale (erase never shrinks
    // reach): lookups keep walking two dead-for-this-home rows until
    // maintenance trims the reach back to the survivors.
    auto sys = std::make_unique<CaRamSubsystem>(1024, 1024, true);
    auto &db = sys->addDatabase(lowBitsConfig("trim", 8));
    for (unsigned s = 0; s < 4; ++s) {
        const Key k = bucketKey(6, s + 1);
        ASSERT_TRUE(db.insert(Record{k, dataFor(k)}));
    }
    for (unsigned s = 0; s < 5; ++s) {
        const Key k = bucketKey(5, s + 1);
        ASSERT_TRUE(db.insert(Record{k, dataFor(k)}));
    }
    // Bucket 5's fifth key sits in row 7 (distance 2); erase it.
    ASSERT_EQ(db.erase(bucketKey(5, 5)), 1u);
    // AMAL only averages over live placements (all at distance 0 now),
    // so the stale reach shows up in what a lookup *walks*: a miss on
    // bucket 5 still fetches home + 2 dead-for-this-home rows.
    ASSERT_EQ(db.search(bucketKey(5, 60)).bucketsAccessed, 3u);

    EngineConfig cfg;
    cfg.workers = 1;
    cfg.maintenance = true;
    // The walk counts below are unfiltered: pin the pre-filter off, or
    // a forced filter (CARAM_PREFILTER=1) skips the empty home row.
    cfg.prefilter = false;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    ASSERT_TRUE(awaitReport(
        eng, [](const EngineReport &r) { return r.reachTrims >= 1; },
        10000))
        << "hollowed reach never trimmed";
    eng.stop();

    // The trimmed reach stops the dead walk: a bucket-5 miss now
    // fetches the home row alone.
    EXPECT_EQ(db.search(bucketKey(5, 60)).bucketsAccessed, 1u);
    db.slice().checkIntegrity();
    for (unsigned s = 0; s < 4; ++s) {
        const auto r6 = db.search(bucketKey(6, s + 1));
        ASSERT_TRUE(r6.hit) << s;
        const auto r5 = db.search(bucketKey(5, s + 1));
        ASSERT_TRUE(r5.hit) << s;
        EXPECT_EQ(r5.data, dataFor(bucketKey(5, s + 1)));
    }
}

TEST(MaintenanceOnline, TornMigrationNeverExposesHalfMigratedRecords)
{
    // CARAM_SEQLOCK_TEAR hook armed at 2: every second migration is
    // interrupted after phase 1 (both copies live, far copy pending).
    // Readers racing the sweep must see exactly the full record set;
    // the interrupted steps must be retried to completion by the time
    // the engine stops.
    auto sys = std::make_unique<CaRamSubsystem>(1024, 1024, true);
    auto &db = sys->addDatabase(lowBitsConfig("torn", 16));
    const std::vector<Key> live = skewedChurn(db, 12, 6);
    db.slice().setTornReadInjection(2);

    EngineConfig cfg;
    cfg.workers = 2;
    cfg.maintenance = true;
    ParallelSearchEngine eng(*sys, cfg);
    eng.start();

    // Out-of-band readers hammer the live keys while migrations tear.
    std::atomic<bool> done{false};
    std::atomic<uint64_t> failures{0};
    std::thread reader([&] {
        Rng rng(0x7ea5);
        while (!done.load(std::memory_order_acquire)) {
            const Key &k = live[rng.below(live.size())];
            const auto r = eng.peek(0, k);
            if (!r.hit || r.data != dataFor(k))
                failures.fetch_add(1, std::memory_order_relaxed);
        }
    });
    const bool progressed = awaitReport(
        eng,
        [](const EngineReport &r) {
            return r.tornMaintenanceSteps >= 2 &&
                   r.maintenanceSweeps >= 2;
        },
        10000);
    done.store(true, std::memory_order_release);
    reader.join();
    eng.stop();
    ASSERT_TRUE(progressed) << "tear injection never fired";

    EXPECT_EQ(failures.load(), 0u);
    const EngineReport rep = eng.report();
    EXPECT_GT(rep.tornMaintenanceSteps, 0u);
    EXPECT_GT(rep.rowsMigrated, 0u);
    // Every pending far copy was retired: exact live count, no
    // duplicates, structure intact.
    EXPECT_EQ(db.size(), live.size());
    db.slice().checkIntegrity();
    for (const Key &k : live)
        EXPECT_EQ(db.erase(k), 1u) << "duplicate or lost: "
                                   << k.toString();
    EXPECT_EQ(db.size(), 0u);
}

TEST(MaintenanceOnline, TornMigrationFlushesBeforeUserEraseAndRebuild)
{
    // Tear every migration (injection 1): each step parks a pending
    // far copy.  A user Erase or Rebuild arriving on the port must
    // flush the pending first -- otherwise the erase would remove and
    // count two copies, and the rebuild would repack the duplicate
    // into two live records.  Run a full churn stream against the
    // serial oracle to prove neither ever happens.
    auto oracle_sys = std::make_unique<CaRamSubsystem>(1024, 1024, true);
    auto &odb = oracle_sys->addDatabase(lowBitsConfig("flush-o", 16));
    auto subject_sys =
        std::make_unique<CaRamSubsystem>(1024, 1024, true);
    auto &sdb = subject_sys->addDatabase(lowBitsConfig("flush-s", 16));
    const std::vector<Key> live_o = skewedChurn(odb, 12, 6);
    const std::vector<Key> live = skewedChurn(sdb, 12, 6);
    ASSERT_EQ(live.size(), live_o.size());
    sdb.slice().setTornReadInjection(1);

    // Churn that keeps regenerating migration work even across the
    // stream's rebuilds: fresh inserts pile onto the three most
    // crowded buckets (so spills keep reappearing), erases drain
    // skewed survivors and fresh keys alike (so holes keep opening on
    // exactly the rows the sweep migrates), and rebuilds land now and
    // then to exercise the flush-before-Rebuild path.
    Rng rng(0x10f5);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    std::size_t next_live = 0;
    std::vector<Key> fresh_live;
    unsigned fresh = 0;
    for (int i = 0; i < 1500; ++i) {
        PortRequest req;
        req.port = 0;
        req.tag = ++tag;
        const double roll = rng.uniform();
        if (roll < 0.10) {
            req.op = PortOp::Insert;
            req.key = bucketKey(static_cast<unsigned>(rng.below(3)),
                                100 + fresh);
            req.data = dataFor(req.key);
            ++fresh;
            fresh_live.push_back(req.key);
        } else if (roll < 0.18 && !fresh_live.empty() &&
                   rng.chance(0.6)) {
            req.op = PortOp::Erase;
            const std::size_t pick = rng.below(fresh_live.size());
            req.key = fresh_live[pick];
            fresh_live.erase(fresh_live.begin() +
                             static_cast<std::ptrdiff_t>(pick));
        } else if (roll < 0.18 && next_live < live.size()) {
            req.op = PortOp::Erase;
            req.key = live[next_live++];
        } else if (roll < 0.20) {
            req.op = PortOp::Rebuild;
        } else {
            req.op = PortOp::Search;
            req.key = rng.chance(0.7) && !live.empty()
                ? live[rng.below(live.size())]
                : bucketKey(static_cast<unsigned>(rng.below(64)),
                            1 + static_cast<unsigned>(rng.below(20)));
        }
        stream.push_back(std::move(req));
    }
    const auto want = serialOracle(*oracle_sys, stream);
    // Placement differences (migration) must never flip an insert's
    // outcome: verify the load stayed moderate enough that every
    // oracle insert succeeded.
    for (const PortResponse &r : want[0]) {
        if (r.op == PortOp::Insert) {
            ASSERT_TRUE(r.ok) << "oracle insert failed: lower the load";
        }
    }

    EngineConfig cfg;
    cfg.workers = 2;
    cfg.batchSize = 4;
    cfg.maintenance = true;
    ParallelSearchEngine eng(*subject_sys, cfg);
    eng.start();
    // Paced submission: keep in-flight depth below the planner's
    // backoff threshold so maintenance steps (and their tear-parked
    // pendings) interleave with the user stream instead of being
    // withheld until the drain.
    for (std::size_t at = 0; at < stream.size(); at += 64) {
        const std::size_t n = std::min<std::size_t>(64,
                                                    stream.size() - at);
        ASSERT_EQ(eng.submitBatch(std::span<const PortRequest>(
                      stream.data() + at, n)),
                  n);
        const uint64_t target = at + n >= 32 ? at + n - 32 : 0;
        while (eng.report().completed < target)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    eng.drain();
    EXPECT_TRUE(awaitReport(
        eng,
        [](const EngineReport &r) { return r.tornMaintenanceSteps > 0; },
        5000))
        << "tear injection never fired";
    eng.stop();

    std::vector<PortResponse> got;
    while (auto r = eng.fetchResult(0))
        got.push_back(std::move(*r));
    ASSERT_EQ(got.size(), want[0].size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        expectSameAnswer(got[i], want[0][i], i);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    ASSERT_EQ(sdb.size(), odb.size());
    sdb.slice().checkIntegrity();
    for (const PortRequest &req : stream) {
        if (req.op == PortOp::Rebuild)
            continue;
        const auto a = sdb.search(req.key);
        const auto b = odb.search(req.key);
        ASSERT_EQ(a.hit, b.hit) << req.key.toString();
        if (a.hit) {
            ASSERT_EQ(a.data, b.data);
        }
    }
}

TEST(MaintenanceOnline, HotKeysStayCachedWhileColdRowsCompact)
{
    // Hot keys live at distance 0 in buckets 40..47; the skewed churn
    // (and therefore every migration) is confined to buckets 0..11 and
    // their chains.  Steps invalidate only the regions they dirty, so
    // the hot entries must keep hitting while maintenance compacts the
    // cold rows: hit rate >= 50% is the gate (it should be near 100%).
    auto sys = std::make_unique<CaRamSubsystem>(1024, 1024, true);
    auto &db = sys->addDatabase(lowBitsConfig("hot", 16));
    skewedChurn(db, 12, 6);
    std::vector<Key> hot;
    for (unsigned b = 40; b < 48; ++b) {
        hot.push_back(bucketKey(b, 1));
        ASSERT_TRUE(db.insert(Record{hot.back(), dataFor(hot.back())}));
    }

    EngineConfig cfg;
    cfg.workers = 2;
    cfg.maintenance = true;
    cfg.resultCacheEntries = 1024;
    ParallelSearchEngine eng(*sys, cfg);
    ASSERT_GT(eng.resolvedResultCacheEntries(), 0u);
    eng.start();
    // Let the sweep start moving cold records first, then stream the
    // hot repeats while further sweeps run underneath.
    ASSERT_TRUE(awaitReport(
        eng, [](const EngineReport &r) { return r.rowsMigrated > 0; },
        10000));
    Rng rng(0xcafe);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (int i = 0; i < 2000; ++i) {
        PortRequest req;
        req.port = 0;
        req.op = PortOp::Search;
        req.key = hot[rng.below(hot.size())];
        req.tag = ++tag;
        stream.push_back(std::move(req));
    }
    ASSERT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    eng.stop();

    const EngineReport rep = eng.report();
    ASSERT_GT(rep.cacheHits + rep.cacheMisses, 0u);
    const double hit_rate =
        static_cast<double>(rep.cacheHits) /
        static_cast<double>(rep.cacheHits + rep.cacheMisses);
    EXPECT_GE(hit_rate, 0.5)
        << "maintenance on cold rows evicted hot keys (hits "
        << rep.cacheHits << ", misses " << rep.cacheMisses << ")";
    EXPECT_GT(rep.rowsMigrated, 0u);
    // Correctness alongside the rate: every hot response was right.
    std::size_t checked = 0;
    while (auto r = eng.fetchResult(0)) {
        EXPECT_TRUE(r->hit);
        EXPECT_EQ(r->data, dataFor(r->key));
        ++checked;
    }
    EXPECT_EQ(checked, stream.size());
}

} // namespace
} // namespace caram::engine
