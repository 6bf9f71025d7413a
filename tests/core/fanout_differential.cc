/**
 * @file
 * Randomized differential harness for the shard-scoped fan-out search
 * path (CaRamSlice::candidateHomes + packSearchKey + searchRows +
 * mergeShardResults + noteFanoutSearch, then
 * Database::mergeOverflowResult) against the serial search() oracle.
 *
 * Each run drives two identically-constructed databases through the
 * same seeded mixed operation stream -- inserts, erases, searches,
 * runs of searches and rebuilds, over binary, ternary-exact and LPM
 * key spaces, with don't-care bits in hash positions duplicating
 * lookups across up to 256 candidate home rows.  The oracle executes
 * searches through search(), runs of them behind prefetchHome()
 * hints; the subject executes the
 * same keys through the fan-out decomposition at a randomized shard
 * count (1..32).  Every response field (hit, matched record, LPM
 * priority winner, bucketsAccessed) and the aggregate slice search
 * counters must stay bit-identical; a divergence message carries the
 * reproducing seed and operation index.
 *
 * The whole sweep repeats under each *forced* comparator kernel
 * (scalar / AVX2 / AVX-512), so the fan-out path is pinned identical
 * to the serial chain under every kernel the dispatcher can select.
 */

#include <array>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpuid.h"
#include "common/random.h"
#include "core/database.h"
#include "core/slice.h"
#include "hash/bit_select.h"

namespace caram::core {
namespace {

/** Forces a comparator kernel for the guard's lifetime.  Processors
 *  sample the kernel at construction, so build slices under the
 *  guard. */
struct KernelOverrideGuard
{
    explicit KernelOverrideGuard(simd::MatchKernel kernel)
    {
        simd::setMatchKernelOverride(kernel);
    }
    ~KernelOverrideGuard() { simd::setMatchKernelOverride(std::nullopt); }
};

constexpr unsigned kMaxShards = 32;

/** One key-space / overflow-policy variant of the stream. */
struct Variant
{
    const char *name;
    unsigned keyBits;
    unsigned indexBits;
    bool ternary;
    bool lpm;
    std::vector<unsigned> taps;
    OverflowPolicy overflow;
    std::size_t overflowCapacity; ///< ParallelTcam only
};

Variant
ternaryExactVariant()
{
    // Eight spread taps: a key leaving all of them don't-care expands
    // to 2^8 = 256 candidate home rows.
    return Variant{"ternary-exact", 40,    8,
                   true,            false, {0, 5, 11, 17, 22, 28, 33, 39},
                   OverflowPolicy::Probing, 0};
}

Variant
lpmVariant()
{
    // Top-bit taps, the IP-lookup arrangement: short prefixes leave
    // don't-cares in hash positions and duplicate across homes.
    return Variant{"lpm",  40,   8,
                   true,   true, {0, 1, 2, 3, 4, 5, 6, 7},
                   OverflowPolicy::Probing, 0};
}

Variant
binaryTcamVariant()
{
    // Binary keys (single home, single shard) over a small table with
    // a parallel victim TCAM: exercises mergeOverflowResult() against
    // the serial overflow merge.
    return Variant{"binary-tcam", 32,    5,
                   false,         false, {0, 7, 13, 19, 26},
                   OverflowPolicy::ParallelTcam, 128};
}

Variant
binaryOverflowSliceVariant()
{
    return Variant{"binary-ovslice", 32,    5,
                   false,            false, {0, 7, 13, 19, 26},
                   OverflowPolicy::ParallelSlice, 0};
}

std::unique_ptr<Database>
buildDatabase(const Variant &v, const std::string &name)
{
    DatabaseConfig cfg;
    cfg.name = name;
    cfg.sliceShape.indexBits = v.indexBits;
    cfg.sliceShape.logicalKeyBits = v.keyBits;
    cfg.sliceShape.ternary = v.ternary;
    cfg.sliceShape.lpm = v.lpm;
    cfg.sliceShape.slotsPerBucket = 4;
    cfg.sliceShape.dataBits = 16;
    cfg.sliceShape.maxProbeDistance =
        v.overflow == OverflowPolicy::Probing ? 8 : 2;
    cfg.overflow = v.overflow;
    cfg.overflowCapacity = v.overflowCapacity;
    if (v.overflow == OverflowPolicy::ParallelSlice) {
        cfg.overflowIndexBits = 3;
        cfg.overflowSlots = 4;
    }
    const std::vector<unsigned> taps = v.taps;
    cfg.indexFactory = [taps](const SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        // The overflow slice reuses the factory with fewer index bits:
        // take a tap prefix of the requested width.
        std::vector<unsigned> use(taps.begin(),
                                  taps.begin() + eff.indexBits);
        return std::make_unique<hash::BitSelectIndex>(
            eff.logicalKeyBits, std::move(use));
    };
    return std::make_unique<Database>(std::move(cfg));
}

/** A key for @p v: LPM variants draw prefixes (care bits are a
 *  leading run), exact variants draw per-bit care with @p care_p. */
Key
randomKey(Rng &rng, const Variant &v, double care_p, unsigned min_plen)
{
    Key k(v.keyBits);
    if (v.lpm) {
        const unsigned plen = static_cast<unsigned>(
            rng.inRange(min_plen, v.keyBits));
        for (unsigned p = 0; p < v.keyBits; ++p)
            k.setBitAt(p, rng.chance(0.5), p < plen);
        return k;
    }
    for (unsigned p = 0; p < v.keyBits; ++p)
        k.setBitAt(p, rng.chance(0.5), !v.ternary || rng.chance(care_p));
    return k;
}

/** Don't-care a random subset of hash taps (exact variants): the
 *  candidate home set grows by 2^cleared, up to 2^8 = 256. */
void
wildcardTaps(Rng &rng, const Variant &v, Key &k)
{
    const unsigned clear = static_cast<unsigned>(
        rng.inRange(1, v.taps.size()));
    for (unsigned c = 0; c < clear; ++c)
        k.setBitAt(v.taps[rng.below(v.taps.size())], false, false);
}

/** Caller-owned scratch the subject's fan-out searches run out of --
 *  the shard-local state an engine worker would hold. */
struct FanoutScratch
{
    std::vector<uint64_t> homes;
    MatchProcessor::PackedKey packed;
    std::array<SearchResult, kMaxShards> shard;
};

/**
 * One lookup through the fan-out decomposition: candidate homes,
 * caller-scratch pack, contiguous shard partition (the engine's
 * base/remainder split), per-shard searchRows, priority merge, serial
 * counter accounting, overflow fold.  Bit-identical to
 * db.search(key) by construction -- that is what the harness checks.
 */
SearchResult
fanoutSearch(Database &db, const Key &key, unsigned want_shards,
             FanoutScratch &scratch)
{
    CaRamSlice &sl = db.slice();
    sl.candidateHomes(key, scratch.homes);
    sl.packSearchKey(key, scratch.packed);
    const auto nhomes = static_cast<unsigned>(scratch.homes.size());
    const unsigned nshards = std::min(want_shards, nhomes);
    const unsigned base = nhomes / nshards;
    const unsigned rem = nhomes % nshards;
    unsigned offset = 0;
    for (unsigned s = 0; s < nshards; ++s) {
        const unsigned count = base + (s < rem ? 1 : 0);
        scratch.shard[s] = sl.searchRows(
            scratch.packed, scratch.homes.data() + offset, count);
        offset += count;
    }
    SearchResult merged = CaRamSlice::mergeShardResults(
        scratch.shard.data(), nshards, sl.config().lpm);
    sl.noteFanoutSearch(merged.bucketsAccessed);
    db.mergeOverflowResult(key, merged);
    return merged;
}

void
expectSameResult(const SearchResult &subject, const SearchResult &oracle,
                 const Key &key, const std::string &ctx)
{
    ASSERT_EQ(subject.hit, oracle.hit) << ctx << " key " << key.toString();
    EXPECT_EQ(subject.bucketsAccessed, oracle.bucketsAccessed)
        << ctx << " key " << key.toString();
    if (!oracle.hit)
        return;
    EXPECT_EQ(subject.row, oracle.row) << ctx;
    EXPECT_EQ(subject.slot, oracle.slot) << ctx;
    EXPECT_EQ(subject.multipleMatch, oracle.multipleMatch) << ctx;
    EXPECT_EQ(subject.data, oracle.data) << ctx;
    EXPECT_EQ(subject.key, oracle.key) << ctx << " key "
                                       << key.toString();
}

/** Drive one seeded mixed-op stream over subject + oracle. */
void
runStream(const Variant &v, uint64_t seed, int ops)
{
    SCOPED_TRACE(::testing::Message()
                 << "variant " << v.name << " seed " << seed
                 << " (rerun: runStream(" << v.name << "Variant(), "
                 << seed << ", " << ops << "))");
    auto subject = buildDatabase(v, std::string(v.name) + "-subject");
    auto oracle = buildDatabase(v, std::string(v.name) + "-oracle");

    Rng rng(seed);
    std::vector<Key> population;
    FanoutScratch scratch;
    std::array<SearchResult, 32> batch_out;
    std::vector<Key> batch_keys;

    // A search key: mostly replays of stored keys (hits), sometimes
    // widened with extra wildcard taps (multi-home), sometimes fresh.
    const unsigned lpm_search_min_plen = 0; // down to match-everything
    auto search_key = [&]() -> Key {
        if (!population.empty() && rng.chance(0.55)) {
            Key k = population[rng.below(population.size())];
            if (v.ternary && !v.lpm && rng.chance(0.5))
                wildcardTaps(rng, v, k);
            if (v.lpm && rng.chance(0.5)) {
                // Shorten the prefix: fewer care taps, more homes.
                for (unsigned p = static_cast<unsigned>(
                         rng.below(v.keyBits));
                     p < v.keyBits; ++p)
                    k.setBitAt(p, false, false);
            }
            return k;
        }
        Key k = randomKey(rng, v, rng.chance(0.5) ? 1.0 : 0.9,
                          lpm_search_min_plen);
        if (v.ternary && !v.lpm && rng.chance(0.4))
            wildcardTaps(rng, v, k);
        return k;
    };

    for (int op = 0; op < ops; ++op) {
        SCOPED_TRACE(::testing::Message() << "op " << op);
        const double roll = rng.uniform();
        if (roll < 0.28) {
            // Insert: bounded duplication (LPM prefixes >= 4 bits,
            // exact keys with high tap care) keeps copies <= 16.
            const Key k = randomKey(rng, v, 0.97, 4);
            const uint64_t data = rng.below(1u << 16);
            const int prio =
                v.lpm ? static_cast<int>(k.carePopcount()) : 0;
            const bool a = subject->insert(Record{k, data}, prio);
            const bool b = oracle->insert(Record{k, data}, prio);
            ASSERT_EQ(a, b);
            if (a)
                population.push_back(k);
        } else if (roll < 0.38 && !population.empty()) {
            const Key k = population[rng.below(population.size())];
            ASSERT_EQ(subject->erase(k), oracle->erase(k));
        } else if (roll < 0.41 && subject->canRebuild()) {
            const auto a = subject->rebuild();
            const auto b = oracle->rebuild();
            ASSERT_EQ(a.ok, b.ok);
            ASSERT_EQ(a.records, b.records);
            ASSERT_EQ(a.failedRecords, b.failedRecords);
        } else if (roll < 0.85) {
            const Key k = search_key();
            const unsigned shards =
                static_cast<unsigned>(rng.inRange(1, kMaxShards));
            const SearchResult got =
                fanoutSearch(*subject, k, shards, scratch);
            const SearchResult want = oracle->search(k);
            expectSameResult(got, want, k,
                             "shards=" + std::to_string(shards));
        } else {
            // Pipelined oracle vs per-key fan-out subject: the oracle
            // runs the engine's prefetch pipeline (hint four ahead,
            // then search), whose results are serial-identical, so the
            // fan-out must match them element for element too.
            const unsigned n =
                static_cast<unsigned>(rng.inRange(2, 32));
            batch_keys.clear();
            for (unsigned i = 0; i < n; ++i)
                batch_keys.push_back(search_key());
            for (unsigned i = 0; i < n; ++i) {
                if (i + 4 < n)
                    oracle->prefetchHome(batch_keys[i + 4]);
                batch_out[i] = oracle->search(batch_keys[i]);
            }
            const unsigned shards =
                static_cast<unsigned>(rng.inRange(1, kMaxShards));
            for (unsigned i = 0; i < n; ++i) {
                const SearchResult got = fanoutSearch(
                    *subject, batch_keys[i], shards, scratch);
                expectSameResult(got, batch_out[i], batch_keys[i],
                                 "batch index " + std::to_string(i));
            }
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }

    // Counter equivalence: noteFanoutSearch() advanced the subject's
    // aggregate search accounting exactly as the oracle's serial and
    // pipelined executions did.
    EXPECT_EQ(subject->slice().searchesPerformed(),
              oracle->slice().searchesPerformed());
    EXPECT_EQ(subject->slice().searchAccesses(),
              oracle->slice().searchAccesses());
    EXPECT_EQ(subject->size(), oracle->size());
}

void
runAllKernels(const Variant &v, uint64_t seed, int ops)
{
    for (auto kernel :
         {simd::MatchKernel::Scalar, simd::MatchKernel::Avx2,
          simd::MatchKernel::Avx512}) {
        if (!simd::kernelAvailable(kernel))
            continue;
        SCOPED_TRACE(::testing::Message()
                     << "kernel " << simd::kernelName(kernel));
        KernelOverrideGuard guard(kernel);
        runStream(v, seed, ops);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(FanoutDifferential, TernaryExactUpTo256Homes)
{
    runAllKernels(ternaryExactVariant(), 0xca11ab1e, 1500);
}

TEST(FanoutDifferential, TernaryExactSecondSeed)
{
    runAllKernels(ternaryExactVariant(), 77001, 1500);
}

TEST(FanoutDifferential, LpmPrefixStreams)
{
    runAllKernels(lpmVariant(), 0x1bf0c0de, 1500);
}

TEST(FanoutDifferential, LpmSecondSeed)
{
    runAllKernels(lpmVariant(), 88002, 1500);
}

TEST(FanoutDifferential, BinaryWithParallelTcamOverflow)
{
    runAllKernels(binaryTcamVariant(), 0xbeef0001, 2000);
}

TEST(FanoutDifferential, BinaryWithOverflowSlice)
{
    runAllKernels(binaryOverflowSliceVariant(), 0xbeef0002, 2000);
}

// Directed edge cases the random streams hit only occasionally.

TEST(FanoutDifferential, EveryShardCountOnOneWideLookup)
{
    // A fixed 256-home lookup at every shard count 1..32: the merge
    // must reproduce the serial result under every partition.
    KernelOverrideGuard guard(simd::bestAvailableKernel());
    const Variant v = ternaryExactVariant();
    auto subject = buildDatabase(v, "subject");
    auto oracle = buildDatabase(v, "oracle");
    Rng rng(1234);
    for (int i = 0; i < 120; ++i) {
        const Key k = randomKey(rng, v, 0.97, 4);
        const uint64_t data = rng.below(1u << 16);
        subject->insert(Record{k, data});
        oracle->insert(Record{k, data});
    }
    FanoutScratch scratch;
    for (int i = 0; i < 40; ++i) {
        Key k = randomKey(rng, v, 0.95, 0);
        for (unsigned t : v.taps)
            k.setBitAt(t, false, false); // all 8 taps: 256 homes
        const SearchResult want = oracle->search(k);
        for (unsigned shards = 1; shards <= kMaxShards; ++shards) {
            const SearchResult got =
                fanoutSearch(*subject, k, shards, scratch);
            expectSameResult(got, want, k,
                             "shards=" + std::to_string(shards));
            if (::testing::Test::HasFatalFailure())
                return;
        }
        // Every shard count performed one accounted lookup.
        ASSERT_EQ(subject->slice().searchesPerformed(),
                  oracle->slice().searchesPerformed() + kMaxShards - 1 +
                      static_cast<uint64_t>(i) * (kMaxShards - 1));
    }
}

TEST(FanoutDifferential, MergePreservesFirstHitAcrossShardBoundary)
{
    // Two copies of one key in different home rows: whichever shard
    // boundary separates them, the merged result must report the
    // first home's copy and charge only the rows up to it (plus the
    // full chains of earlier, missing shards) -- the serial early
    // exit replayed shard by shard.
    KernelOverrideGuard guard(simd::bestAvailableKernel());
    const Variant v = ternaryExactVariant();
    auto subject = buildDatabase(v, "subject");
    auto oracle = buildDatabase(v, "oracle");
    Rng rng(555);
    // One record whose key leaves two taps don't-care: duplicated
    // into four homes, so a search for it has four candidates and
    // hits in the first.
    Key k = randomKey(rng, v, 1.0, 0);
    k.setBitAt(v.taps[2], false, false);
    k.setBitAt(v.taps[5], false, false);
    ASSERT_TRUE(subject->insert(Record{k, 42}));
    ASSERT_TRUE(oracle->insert(Record{k, 42}));
    FanoutScratch scratch;
    const SearchResult want = oracle->search(k);
    ASSERT_TRUE(want.hit);
    for (unsigned shards = 1; shards <= 4; ++shards) {
        const SearchResult got = fanoutSearch(*subject, k, shards,
                                              scratch);
        expectSameResult(got, want, k,
                         "shards=" + std::to_string(shards));
    }
}

} // namespace
} // namespace caram::core
