/**
 * @file
 * Randomized differential harness for the per-row counting pre-filter
 * (core/prefilter.h, EngineConfig::prefilter): mixed Search/Insert/
 * Erase/Rebuild streams run through an engine with the filter
 * consulted, against the strictly serial subsystem oracle executing
 * the identical stream with the filter consulted on its own slices.
 *
 * The contract under test: the filter changes *which rows are
 * fetched*, never what a search answers, and it changes them
 * identically on every path.  For every port, the filtered engine's
 * FIFO response stream must equal the filtered oracle's port-filtered
 * subsequence field for field (tag, ok, hit, data, key,
 * bucketsAccessed -- the post-skip access count), across binary
 * probing, ternary multi-home with row fan-out forced on, and LPM
 * prefix tables, across worker counts x batch widths.  A second
 * differential pins the
 * filtered engine's *payloads* (everything but bucketsAccessed)
 * against a fully unfiltered oracle -- skipping can remove modeled
 * fetches but may never change a verdict.
 *
 * Also here: slice-level counting-semantics tests (erase re-opens the
 * skip, RAM-mode stores suspend consultation until adoptRamContents()
 * rebuilds the filter).  ci_tsan.sh runs this suite under TSan.
 */

#include <cstdlib>
#include <memory>
#include <string>
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
    // Taps inside the top byte (positions 0..7 are the MSBs): every
    // stored prefix (len >= 8) cares for them, so routes place
    // single-home and absent addresses can land on genuinely empty
    // rows -- the occupancy-word skip path.
    return Variant{"lpm", 32, 6, true, true, {0, 1, 2, 3, 5, 7}};
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
        for (int i = 0; i < 60; ++i) {
            const Key k = randomKey(rng, v, 0.97);
            db.insert(Record{k, static_cast<uint64_t>(i)},
                      v.lpm ? static_cast<int>(k.carePopcount()) : 0);
        }
    }
    return sys;
}

/**
 * A seeded mixed stream, deliberately miss-heavy: most searches draw
 * fresh keys from the full key space (absent with overwhelming
 * probability, so the filter's skip path fires constantly), a minority
 * replays inserted keys (present -- the filter must never skip those);
 * ~10% inserts, ~6% erases and ~2% rebuilds keep the counters and the
 * reach mirror churning.
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
            req.key = !pop.empty() && rng.chance(0.3)
                ? pop[rng.below(pop.size())]
                : randomAddress(rng, v);
            if (v.ternary && !v.lpm && rng.chance(0.35)) {
                // Don't-care bits in tap positions: multi-home lookups
                // (and partially specified keys, which the signature
                // block must decline to judge).
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

/** Execute the stream strictly serially, in submission order, with
 *  pre-filter consultation matching @p filtered. */
std::vector<std::vector<PortResponse>>
serialOracle(CaRamSubsystem &sys, const std::vector<PortRequest> &stream,
             bool filtered)
{
    for (std::size_t p = 0; p < sys.databaseCount(); ++p)
        sys.database(static_cast<unsigned>(p))
            .setPrefilterEnabled(filtered);
    std::vector<std::vector<PortResponse>> per_port(sys.databaseCount());
    for (const PortRequest &req : stream)
        per_port[req.port].push_back(
            core::executePortRequest(sys.database(req.port), req));
    return per_port;
}

void
expectSameResponse(const PortResponse &got, const PortResponse &want,
                   std::size_t index, bool compare_accesses)
{
    ASSERT_EQ(got.tag, want.tag) << "port " << want.port << " response "
                                 << index;
    EXPECT_EQ(got.op, want.op);
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.hit, want.hit);
    EXPECT_EQ(got.data, want.data);
    if (compare_accesses) {
        EXPECT_EQ(got.bucketsAccessed, want.bucketsAccessed);
    }
    EXPECT_TRUE(got.key == want.key);
}

void
runDifferential(const Variant &v, unsigned nports, unsigned workers,
                std::size_t batch_size, unsigned fanout_min, uint64_t seed)
{
    SCOPED_TRACE(::testing::Message()
                 << "variant " << v.name << " workers " << workers
                 << " batch " << batch_size << " fanoutMin "
                 << fanout_min << " seed " << seed);
    auto oracle_sys = buildSubsystem(v, nports, "oracle");
    auto subject_sys = buildSubsystem(v, nports, "subject");
    const std::vector<PortRequest> stream =
        mixedStream(v, nports, 3000, seed);

    const auto want = serialOracle(*oracle_sys, stream, true);

    EngineConfig cfg;
    cfg.workers = workers;
    cfg.batchSize = batch_size;
    cfg.rowFanoutMin = fanout_min;
    cfg.prefilter = true;
    ParallelSearchEngine eng(*subject_sys, cfg);
    EXPECT_TRUE(eng.resolvedPrefilter());
    eng.start();
    ASSERT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    eng.stop();

    // The miss-heavy stream must actually exercise the skip path.
    const EngineReport rep = eng.report();
    EXPECT_GT(rep.prefilterProbes, 0u);
    EXPECT_GT(rep.prefilterSkips, 0u);

    for (unsigned p = 0; p < nports; ++p) {
        std::vector<PortResponse> got;
        while (auto r = eng.fetchResult(p))
            got.push_back(std::move(*r));
        ASSERT_EQ(got.size(), want[p].size()) << "port " << p;
        for (std::size_t i = 0; i < got.size(); ++i) {
            expectSameResponse(got[i], want[p][i], i, true);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

    // Final tables agree record for record: no skipped fetch ever
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

TEST(PrefilterDifferential, BinaryInlineMode)
{
    // workers == 0: every path runs at submit time on this thread.
    runDifferential(binaryVariant(), 4, 0, 1, 0, 0x9f117e01);
}

TEST(PrefilterDifferential, BinaryFourWorkersBatched)
{
    // Four owners, each running its popped batches behind the
    // prefetch pipeline, with insert runs batched.
    runDifferential(binaryVariant(), 6, 4, 8, 0, 0x9f117e02);
}

TEST(PrefilterDifferential, TernaryFanoutBatched)
{
    // Fan-out forced down to 2 homes: shard pruning drops whole
    // candidate homes before sub-tasks are enqueued, while the owners'
    // mutations maintain the filter between their ports' searches.
    runDifferential(ternaryVariant(), 4, 4, 8, 2, 0x9f117e04);
}

TEST(PrefilterDifferential, LpmBatchedWorkers)
{
    runDifferential(lpmVariant(), 4, 2, 8, 0, 0x9f117e05);
}

TEST(PrefilterDifferential, PayloadsMatchUnfilteredOracle)
{
    // The one-sided-error claim, end to end: a filtered engine's
    // verdicts (hit/miss, data, matched key, final tables) equal an
    // entirely unfiltered serial oracle's -- only bucketsAccessed may
    // drop.  Covers all three key spaces.
    for (const Variant &v :
         {binaryVariant(), ternaryVariant(), lpmVariant()}) {
        SCOPED_TRACE(v.name);
        auto oracle_sys = buildSubsystem(v, 4, "oracle");
        auto subject_sys = buildSubsystem(v, 4, "subject");
        const auto stream = mixedStream(v, 4, 3000, 0x9f117e07);
        const auto want = serialOracle(*oracle_sys, stream, false);

        EngineConfig cfg;
        cfg.workers = 2;
        cfg.batchSize = 8;
        cfg.prefilter = true;
        ParallelSearchEngine eng(*subject_sys, cfg);
        eng.start();
        ASSERT_EQ(eng.submitBatch(stream), stream.size());
        eng.drain();
        eng.stop();
        EXPECT_GT(eng.report().prefilterSkips, 0u);
        for (unsigned p = 0; p < 4; ++p) {
            std::vector<PortResponse> got;
            while (auto r = eng.fetchResult(p))
                got.push_back(std::move(*r));
            ASSERT_EQ(got.size(), want[p].size()) << "port " << p;
            for (std::size_t i = 0; i < got.size(); ++i) {
                expectSameResponse(got[i], want[p][i], i, false);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Slice-level counting semantics and the suspension protocol.

std::unique_ptr<Database>
buildDatabase(const Variant &v, const std::string &name)
{
    return std::make_unique<Database>(dbConfig(v, name));
}

TEST(PrefilterUnit, EraseReopensTheSkip)
{
    const Variant v = binaryVariant();
    auto db = buildDatabase(v, "erase");
    db->setPrefilterEnabled(true);
    const Key k = Key::fromUint(0x5a5a5a5a, v.keyBits);
    ASSERT_TRUE(db->insert(Record{k, 77}));

    // Present: the filter must pass the row through (no skip), and the
    // search must hit exactly as unfiltered.
    SearchResult r = db->slice().search(k);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.data, 77u);
    EXPECT_EQ(r.bucketsAccessed, 1u);

    // Erased: counting semantics lower the counters back to zero, so
    // the very next search skips the (now guaranteed-miss) home row.
    ASSERT_EQ(db->erase(k), 1u);
    const uint64_t skips_before = db->slice().prefilterSkips();
    r = db->slice().search(k);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.bucketsAccessed, 0u);
    EXPECT_GT(db->slice().prefilterSkips(), skips_before);
}

TEST(PrefilterUnit, DisabledByDefault)
{
    const Variant v = binaryVariant();
    auto db = buildDatabase(v, "default");
    EXPECT_FALSE(db->prefilterEnabled());
    const Key absent = Key::fromUint(0x12345678, v.keyBits);
    const SearchResult r = db->slice().search(absent);
    EXPECT_FALSE(r.hit);
    // Unfiltered: the empty home row is still fetched and charged.
    EXPECT_EQ(r.bucketsAccessed, 1u);
    EXPECT_EQ(db->slice().prefilterProbes(), 0u);
    EXPECT_EQ(db->slice().prefilterSkips(), 0u);
}

TEST(PrefilterUnit, RamStoreSuspendsUntilAdopt)
{
    const Variant v = binaryVariant();
    auto db = buildDatabase(v, "suspend");
    db->setPrefilterEnabled(true);
    Rng rng(11);
    std::vector<Key> keys;
    for (int i = 0; i < 40; ++i) {
        const Key k =
            Key::fromUint(rng.next64() & 0xffffffffu, v.keyBits);
        if (db->insert(Record{k, static_cast<uint64_t>(i)}))
            keys.push_back(k);
    }
    const Key absent = Key::fromUint(0xdeadbeef, v.keyBits);
    const uint64_t skips0 = db->slice().prefilterSkips();
    EXPECT_FALSE(db->slice().search(absent).hit);
    EXPECT_GT(db->slice().prefilterSkips(), skips0);

    // A raw RAM-mode store bypasses the filter's bookkeeping: every
    // consult must now answer "maybe" (no skips) until the wholesale
    // rebuild, and searches stay correct throughout.
    db->slice().ramStore(0, db->slice().ramLoad(0));
    const uint64_t skips1 = db->slice().prefilterSkips();
    EXPECT_FALSE(db->slice().search(absent).hit);
    EXPECT_EQ(db->slice().prefilterSkips(), skips1);
    for (const Key &k : keys)
        EXPECT_TRUE(db->slice().search(k).hit);

    // adoptRamContents() rebuilds the filter from the adopted bits and
    // lifts the suspension: skips resume, hits survive.
    db->slice().adoptRamContents();
    EXPECT_FALSE(db->slice().search(absent).hit);
    EXPECT_GT(db->slice().prefilterSkips(), skips1);
    for (const Key &k : keys)
        EXPECT_TRUE(db->slice().search(k).hit);
}

} // namespace
} // namespace caram::engine
