/** @file Tests for CaRamSlice: CAM-mode operations, probing, ternary
 *  duplication, RAM mode, statistics and integrity. */

#include "core/slice.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/logging.h"
#include "common/random.h"
#include "hash/bit_select.h"
#include "hash/djb.h"
#include "hash/folding.h"

namespace caram::core {
namespace {

SliceConfig
binaryConfig(unsigned index_bits = 6, unsigned slots = 4)
{
    SliceConfig cfg;
    cfg.indexBits = index_bits;
    cfg.logicalKeyBits = 32;
    cfg.ternary = false;
    cfg.slotsPerBucket = slots;
    cfg.dataBits = 16;
    cfg.probe = ProbePolicy::Linear;
    cfg.maxProbeDistance = (1u << index_bits) - 1;
    return cfg;
}

std::unique_ptr<CaRamSlice>
makeSlice(const SliceConfig &cfg)
{
    return std::make_unique<CaRamSlice>(
        cfg, std::make_unique<hash::LowBitsIndex>(cfg.logicalKeyBits,
                                                  cfg.indexBits));
}

TEST(Slice, RejectsIndexWidthMismatch)
{
    const SliceConfig cfg = binaryConfig();
    EXPECT_THROW(CaRamSlice(cfg, std::make_unique<hash::LowBitsIndex>(
                                     32, cfg.indexBits + 1)),
                 caram::FatalError);
    EXPECT_THROW(CaRamSlice(cfg, nullptr), caram::FatalError);
}

TEST(Slice, InsertThenSearchFinds)
{
    auto slice = makeSlice(binaryConfig());
    const Record rec{Key::fromUint(0x1234, 32), 42};
    const auto ins = slice->insert(rec);
    ASSERT_TRUE(ins.ok);
    EXPECT_EQ(ins.copies, 1u);
    EXPECT_EQ(ins.maxDistance, 0u);

    const auto r = slice->search(rec.key);
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.data, 42u);
    EXPECT_EQ(r.bucketsAccessed, 1u);
    EXPECT_EQ(slice->size(), 1u);
}

TEST(Slice, MissReportsNoHit)
{
    auto slice = makeSlice(binaryConfig());
    slice->insert(Record{Key::fromUint(1, 32), 0});
    const auto r = slice->search(Key::fromUint(2, 32));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.bucketsAccessed, 1u);
}

TEST(Slice, HomeRowUsesIndexGenerator)
{
    auto slice = makeSlice(binaryConfig(6));
    EXPECT_EQ(slice->homeRow(Key::fromUint(0x7f, 32)), 0x3fu);
    EXPECT_EQ(slice->homeRow(Key::fromUint(0x40, 32)), 0u);
}

TEST(Slice, CollisionFillsBucketThenSpills)
{
    // All keys hash to bucket 5 (same low 6 bits).
    const SliceConfig cfg = binaryConfig(6, 4);
    auto slice = makeSlice(cfg);
    for (unsigned i = 0; i < 6; ++i) {
        const Record rec{Key::fromUint(5 | (i << 6), 32), i};
        const auto ins = slice->insert(rec);
        ASSERT_TRUE(ins.ok) << i;
        EXPECT_EQ(ins.placements[0].homeRow, 5u);
        if (i < 4) {
            EXPECT_EQ(ins.maxDistance, 0u);
        } else {
            EXPECT_EQ(ins.maxDistance, 1u); // spilled to bucket 6
            EXPECT_EQ(ins.placements[0].placedRow, 6u);
        }
    }
    // All six are findable; spilled ones cost two accesses.
    for (unsigned i = 0; i < 6; ++i) {
        const auto r = slice->search(Key::fromUint(5 | (i << 6), 32));
        ASSERT_TRUE(r.hit) << i;
        EXPECT_EQ(r.data, i);
        EXPECT_EQ(r.bucketsAccessed, i < 4 ? 1u : 2u);
    }
}

TEST(Slice, ReachLimitsProbeOnMiss)
{
    const SliceConfig cfg = binaryConfig(6, 2);
    auto slice = makeSlice(cfg);
    // No overflow yet: a miss touches only the home bucket.
    slice->insert(Record{Key::fromUint(5, 32), 0});
    auto r = slice->search(Key::fromUint(5 | (9u << 6), 32));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.bucketsAccessed, 1u);
    // Overflow the bucket: reach grows, misses now probe further.
    slice->insert(Record{Key::fromUint(5 | (1u << 6), 32), 0});
    slice->insert(Record{Key::fromUint(5 | (2u << 6), 32), 0});
    r = slice->search(Key::fromUint(5 | (9u << 6), 32));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.bucketsAccessed, 2u);
}

TEST(Slice, ProbingWrapsAroundRowSpace)
{
    const SliceConfig cfg = binaryConfig(4, 1); // 16 rows, 1 slot each
    auto slice = makeSlice(cfg);
    // Fill the last row's bucket, then collide into it: wraps to row 0.
    ASSERT_TRUE(slice->insert(Record{Key::fromUint(15, 32), 1}).ok);
    const auto ins =
        slice->insert(Record{Key::fromUint(15 | 16, 32), 2});
    ASSERT_TRUE(ins.ok);
    EXPECT_EQ(ins.placements[0].placedRow, 0u);
    const auto r = slice->search(Key::fromUint(15 | 16, 32));
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.data, 2u);
}

TEST(Slice, InsertFailsWhenProbeWindowFull)
{
    SliceConfig cfg = binaryConfig(4, 1);
    cfg.maxProbeDistance = 2;
    auto slice = makeSlice(cfg);
    for (unsigned i = 0; i < 3; ++i) {
        ASSERT_TRUE(
            slice->insert(Record{Key::fromUint(3 | (i << 4), 32), i})
                .ok);
    }
    const auto ins =
        slice->insert(Record{Key::fromUint(3 | (8u << 4), 32), 9});
    EXPECT_FALSE(ins.ok);
    EXPECT_EQ(slice->size(), 3u); // no partial state
}

TEST(Slice, ProbePolicyNoneNeverSpills)
{
    SliceConfig cfg = binaryConfig(4, 1);
    cfg.probe = ProbePolicy::None;
    auto slice = makeSlice(cfg);
    ASSERT_TRUE(slice->insert(Record{Key::fromUint(3, 32), 0}).ok);
    EXPECT_FALSE(slice->insert(Record{Key::fromUint(3 | 16, 32), 1}).ok);
}

TEST(Slice, SecondHashProbeFindsRecords)
{
    SliceConfig cfg = binaryConfig(5, 1);
    cfg.probe = ProbePolicy::SecondHash;
    cfg.maxProbeDistance = 31;
    auto slice = makeSlice(cfg);
    // Ten colliding keys, one slot per bucket: all must be findable.
    for (unsigned i = 0; i < 10; ++i) {
        ASSERT_TRUE(
            slice->insert(Record{Key::fromUint(7 | (i << 5), 32), i}).ok)
            << i;
    }
    for (unsigned i = 0; i < 10; ++i) {
        const auto r = slice->search(Key::fromUint(7 | (i << 5), 32));
        ASSERT_TRUE(r.hit) << i;
        EXPECT_EQ(r.data, i);
    }
}

TEST(Slice, EraseRemovesAndFreesSlot)
{
    auto slice = makeSlice(binaryConfig());
    const Key k = Key::fromUint(0x77, 32);
    slice->insert(Record{k, 1});
    EXPECT_EQ(slice->erase(k), 1u);
    EXPECT_FALSE(slice->search(k).hit);
    EXPECT_EQ(slice->size(), 0u);
    // The slot is reusable.
    EXPECT_TRUE(slice->insert(Record{k, 2}).ok);
    EXPECT_EQ(slice->search(k).data, 2u);
}

TEST(Slice, EraseMissingReturnsZero)
{
    auto slice = makeSlice(binaryConfig());
    EXPECT_EQ(slice->erase(Key::fromUint(1, 32)), 0u);
}

TEST(Slice, EraseSpilledRecord)
{
    const SliceConfig cfg = binaryConfig(6, 1);
    auto slice = makeSlice(cfg);
    const Key a = Key::fromUint(9, 32);
    const Key b = Key::fromUint(9 | 64, 32); // spills to row 10
    slice->insert(Record{a, 1});
    slice->insert(Record{b, 2});
    EXPECT_EQ(slice->erase(b), 1u);
    EXPECT_FALSE(slice->search(b).hit);
    EXPECT_TRUE(slice->search(a).hit);
    slice->checkIntegrity();
}

TEST(Slice, PrefetchHomeIsOnlyAHint)
{
    // A hint changes nothing: a search stream interleaved with hints
    // four keys ahead answers exactly what the plain stream answers,
    // counters included, and the keys the hint skips (another width,
    // don't-care bits, the empty key) are harmless no-ops.
    auto plain = makeSlice(binaryConfig());
    auto hinted = makeSlice(binaryConfig());
    Rng rng(77);
    std::vector<Key> stream;
    for (int i = 0; i < 200; ++i) {
        const Record rec{Key::fromUint(rng.below(1u << 12), 32),
                         rng.below(1u << 16)};
        EXPECT_EQ(plain->insert(rec).ok, hinted->insert(rec).ok);
        stream.push_back(rec.key);
        stream.push_back(Key::fromUint(rng.below(1u << 12), 32));
    }
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (i + 4 < stream.size())
            hinted->prefetchHome(stream[i + 4]);
        hinted->prefetchHome(Key::fromUint(i, 16));
        hinted->prefetchHome(Key::ternary(i, 0xff00, 32));
        hinted->prefetchHome(Key());
        const SearchResult want = plain->search(stream[i]);
        const SearchResult got = hinted->search(stream[i]);
        ASSERT_EQ(got.hit, want.hit) << "key " << i;
        EXPECT_EQ(got.data, want.data) << "key " << i;
        EXPECT_EQ(got.row, want.row) << "key " << i;
        EXPECT_EQ(got.slot, want.slot) << "key " << i;
        EXPECT_EQ(got.bucketsAccessed, want.bucketsAccessed) << "key " << i;
    }
    EXPECT_EQ(hinted->searchesPerformed(), plain->searchesPerformed());
    EXPECT_EQ(hinted->searchAccesses(), plain->searchAccesses());
    hinted->checkIntegrity();
}

TEST(Slice, DuplicateKeySearchReturnsOne)
{
    auto slice = makeSlice(binaryConfig());
    const Key k = Key::fromUint(0x55, 32);
    slice->insert(Record{k, 1});
    slice->insert(Record{k, 2});
    const auto r = slice->search(k);
    ASSERT_TRUE(r.hit);
    EXPECT_TRUE(r.multipleMatch);
    EXPECT_EQ(r.data, 1u); // priority encoder: lowest slot
}

// --- Ternary keys and duplication ------------------------------------

SliceConfig
ternaryConfig(unsigned index_bits = 6, unsigned slots = 4)
{
    SliceConfig cfg = binaryConfig(index_bits, slots);
    cfg.ternary = true;
    cfg.lpm = true;
    return cfg;
}

std::unique_ptr<CaRamSlice>
makeIpSlice(unsigned index_bits = 6, unsigned slots = 4)
{
    const SliceConfig cfg = ternaryConfig(index_bits, slots);
    return std::make_unique<CaRamSlice>(
        cfg, std::make_unique<hash::BitSelectIndex>(
                 hash::BitSelectIndex::lastBitsOfFirst16(
                     32, cfg.indexBits)));
}

TEST(SliceTernary, PrefixWithDontCareHashBitsIsDuplicated)
{
    auto slice = makeIpSlice(6, 4);
    // Hash bits are positions [10, 16); a /12 prefix leaves 4 wildcard.
    const Record rec{Key::prefix(0xabc00000u, 12, 32), 7};
    const auto ins = slice->insert(rec);
    ASSERT_TRUE(ins.ok);
    EXPECT_EQ(ins.copies, 16u);
    EXPECT_EQ(slice->size(), 16u);

    // Any concretization of the prefix finds it in one access.
    caram::Rng rng(71);
    for (int i = 0; i < 50; ++i) {
        const uint32_t addr =
            0xabc00000u | static_cast<uint32_t>(rng.below(1u << 20));
        const auto r = slice->search(Key::fromUint(addr, 32));
        ASSERT_TRUE(r.hit);
        EXPECT_EQ(r.data, 7u);
        EXPECT_EQ(r.bucketsAccessed, 1u);
    }
}

TEST(SliceTernary, EraseRemovesAllDuplicates)
{
    auto slice = makeIpSlice(6, 4);
    const Record rec{Key::prefix(0xabc00000u, 12, 32), 7};
    slice->insert(rec);
    EXPECT_EQ(slice->erase(rec.key), 16u);
    EXPECT_EQ(slice->size(), 0u);
    EXPECT_FALSE(slice->search(Key::fromUint(0xabc12345u, 32)).hit);
    slice->checkIntegrity();
}

TEST(SliceTernary, AllOrNothingInsertRollsBack)
{
    // One slot per bucket; pre-fill one of the duplication targets so a
    // duplicated insert must fail and roll back.
    SliceConfig cfg = ternaryConfig(6, 1);
    cfg.probe = ProbePolicy::None;
    auto slice = std::make_unique<CaRamSlice>(
        cfg, std::make_unique<hash::BitSelectIndex>(
                 hash::BitSelectIndex::lastBitsOfFirst16(32, 6)));
    // /15 prefix: one wildcard hash bit -> 2 copies.
    const Record blocker{Key::fromUint(0xabcd1234u, 32), 1};
    ASSERT_TRUE(slice->insert(blocker).ok);
    const Record dup{Key::prefix(0xabcc0000u, 15, 32), 2};
    // 0xabcc and 0xabcd differ only in hash bit position 15: the /15
    // duplicates into the blocker's bucket.
    const auto ins = slice->insert(dup);
    EXPECT_FALSE(ins.ok);
    EXPECT_EQ(slice->size(), 1u);
    slice->checkIntegrity();
}

TEST(SliceTernary, RollbackRemovesOnlyItsOwnCopies)
{
    // A failing duplicated insert rolls back the copies it placed
    // without disturbing a record that shares the same key bits.
    SliceConfig cfg = ternaryConfig(6, 1);
    cfg.probe = ProbePolicy::None;
    auto slice = std::make_unique<CaRamSlice>(
        cfg, std::make_unique<hash::BitSelectIndex>(
                 hash::BitSelectIndex::lastBitsOfFirst16(32, 6)));
    // Pre-existing /16 fills its single-slot bucket.
    const Record existing{Key::prefix(0xabcd0000u, 16, 32), 1};
    ASSERT_TRUE(slice->insert(existing).ok);
    EXPECT_EQ(slice->size(), 1u);
    // A /15 sharing the first 15 bits duplicates into that bucket and
    // its sibling: one copy lands, the other collides -> full rollback.
    const Record wide{Key::prefix(0xabcc0000u, 15, 32), 2};
    const auto failing = slice->insert(wide);
    EXPECT_FALSE(failing.ok);
    // The pre-existing record is untouched and still findable.
    EXPECT_EQ(slice->size(), 1u);
    const auto r = slice->search(Key::fromUint(0xabcd1234u, 32));
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.data, 1u);
    slice->checkIntegrity();
}

TEST(Slice, RemovePlacementUndoesExactSlot)
{
    auto slice = makeSlice(binaryConfig(4, 2));
    const Record rec{Key::fromUint(3, 32), 7};
    const auto first = slice->insertAt(3, rec);
    const auto second = slice->insertAt(3, rec); // identical key
    ASSERT_TRUE(first.ok);
    ASSERT_TRUE(second.ok);
    EXPECT_EQ(slice->size(), 2u);
    slice->removePlacement(second);
    EXPECT_EQ(slice->size(), 1u);
    // The first copy is still findable in its exact slot.
    const auto r = slice->search(rec.key);
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.slot, first.slot);
    slice->checkIntegrity();
}

TEST(SliceTernary, LpmPicksLongestAcrossBuckets)
{
    auto slice = makeIpSlice(6, 2);
    // Same home bucket: /16 and /24 under it, plus a spilled /28.
    const uint32_t base = 0x0a0b0000u;
    slice->insert(Record{Key::prefix(base, 16, 32), 16});
    slice->insert(Record{Key::prefix(base | 0x0c00u, 24, 32), 24});
    // Bucket of this home is now full; next insert spills.
    slice->insert(Record{Key::prefix(base | 0x0cd0u, 28, 32), 28});

    EXPECT_EQ(slice->search(Key::fromUint(base | 1, 32)).data, 16u);
    EXPECT_EQ(slice->search(Key::fromUint(base | 0x0c01u, 32)).data,
              24u);
    // The /28 spilled, but LPM must still prefer it.
    const auto r = slice->search(Key::fromUint(base | 0x0cd1u, 32));
    EXPECT_EQ(r.data, 28u);
    EXPECT_EQ(r.bucketsAccessed, 2u);
}

TEST(SliceTernary, SearchKeyWithDontCareHashBitsAccessesMultipleBuckets)
{
    auto slice = makeIpSlice(6, 4);
    slice->insert(Record{Key::fromUint(0x0001'0000u | (1u << 16), 32), 1});
    // Search key with one wildcard hash bit: two candidate buckets.
    Key search = Key::fromUint(1u << 16, 32);
    search.setBitAt(15, false, false); // hash position 15 -> don't care
    const auto r = slice->search(search);
    EXPECT_EQ(r.bucketsAccessed, 2u);
    EXPECT_TRUE(r.hit);
}

// --- Statistics -------------------------------------------------------

TEST(SliceStats, LoadStatsTracksPlacement)
{
    const SliceConfig cfg = binaryConfig(4, 2); // 16 buckets x 2 slots
    auto slice = makeSlice(cfg);
    // Three records into bucket 3: one spills.
    for (unsigned i = 0; i < 3; ++i)
        slice->insert(Record{Key::fromUint(3 | (i << 4), 32), i});
    // One record into bucket 7.
    slice->insert(Record{Key::fromUint(7, 32), 9});

    const LoadStats s = slice->loadStats();
    EXPECT_EQ(s.records, 4u);
    EXPECT_EQ(s.buckets, 16u);
    EXPECT_EQ(s.slotsPerBucket, 2u);
    EXPECT_EQ(s.spilledRecords, 1u);
    EXPECT_EQ(s.overflowingBuckets, 1u);
    EXPECT_DOUBLE_EQ(s.loadFactor(), 4.0 / 32.0);
    EXPECT_DOUBLE_EQ(s.overflowingBucketFraction(), 1.0 / 16.0);
    EXPECT_DOUBLE_EQ(s.spilledRecordFraction(), 0.25);
    // AMAL: three at distance 0, one at distance 1.
    EXPECT_DOUBLE_EQ(s.amalUniform(), (3 * 1.0 + 1 * 2.0) / 4.0);
    EXPECT_EQ(s.homeDemand.at(3), 1u);  // one bucket with demand 3
    EXPECT_EQ(s.homeDemand.at(1), 1u);
    EXPECT_EQ(s.homeDemand.at(0), 14u);
}

TEST(SliceStats, EraseUpdatesStats)
{
    const SliceConfig cfg = binaryConfig(4, 1);
    auto slice = makeSlice(cfg);
    const Key a = Key::fromUint(3, 32);
    const Key b = Key::fromUint(3 | 16, 32); // spills
    slice->insert(Record{a, 0});
    slice->insert(Record{b, 0});
    EXPECT_EQ(slice->loadStats().spilledRecords, 1u);
    slice->erase(b);
    const LoadStats s = slice->loadStats();
    EXPECT_EQ(s.records, 1u);
    EXPECT_EQ(s.spilledRecords, 0u);
    EXPECT_DOUBLE_EQ(s.amalUniform(), 1.0);
}

TEST(SliceStats, OccupancyHistogram)
{
    const SliceConfig cfg = binaryConfig(4, 2);
    auto slice = makeSlice(cfg);
    slice->insert(Record{Key::fromUint(3, 32), 0});
    slice->insert(Record{Key::fromUint(3 | 16, 32), 0});
    slice->insert(Record{Key::fromUint(7, 32), 0});
    const Histogram h = slice->occupancyHistogram();
    EXPECT_EQ(h.at(2), 1u);  // bucket 3 holds two
    EXPECT_EQ(h.at(1), 1u);  // bucket 7 holds one
    EXPECT_EQ(h.at(0), 14u);
    EXPECT_EQ(h.totalCount(), 16u);
}

TEST(SliceStats, SearchAccountingAccumulates)
{
    auto slice = makeSlice(binaryConfig());
    slice->insert(Record{Key::fromUint(1, 32), 0});
    slice->search(Key::fromUint(1, 32));
    slice->search(Key::fromUint(2, 32));
    EXPECT_EQ(slice->searchesPerformed(), 2u);
    EXPECT_EQ(slice->searchAccesses(), 2u);
}

// --- RAM mode ----------------------------------------------------------

TEST(SliceRamMode, WordRoundTrip)
{
    auto slice = makeSlice(binaryConfig());
    slice->ramStore(17, 0xfeedfacecafebeefull);
    EXPECT_EQ(slice->ramLoad(17), 0xfeedfacecafebeefull);
    EXPECT_GT(slice->ramWords(), 0u);
    EXPECT_THROW(slice->ramLoad(slice->ramWords()), caram::FatalError);
}

TEST(SliceRamMode, AdoptRamContentsRebuildsDatabase)
{
    // Build a database in one slice the normal way, copy its raw words
    // into a second slice through RAM mode (the paper's "series of
    // memory copy operations"), then adopt.
    const SliceConfig cfg = binaryConfig(5, 2);
    auto src = makeSlice(cfg);
    caram::Rng rng(81);
    std::vector<Record> records;
    for (int i = 0; i < 40; ++i) {
        records.push_back(
            Record{Key::fromUint(rng.next64() & 0xffffffffu, 32),
                   static_cast<uint64_t>(i)});
        src->insert(records.back());
    }

    auto dst = makeSlice(cfg);
    for (uint64_t w = 0; w < src->ramWords(); ++w)
        dst->ramStore(w, src->ramLoad(w));
    dst->adoptRamContents();

    EXPECT_EQ(dst->size(), src->size());
    for (const Record &rec : records) {
        const auto r = dst->search(rec.key);
        ASSERT_TRUE(r.hit);
    }
    dst->checkIntegrity();
    // Adopted statistics match the original placement.
    const LoadStats a = src->loadStats();
    const LoadStats b = dst->loadStats();
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.spilledRecords, b.spilledRecords);
    EXPECT_DOUBLE_EQ(a.amalUniform(), b.amalUniform());
}

TEST(Slice, ClearResetsEverything)
{
    auto slice = makeSlice(binaryConfig());
    slice->insert(Record{Key::fromUint(1, 32), 0});
    slice->search(Key::fromUint(1, 32));
    slice->clear();
    EXPECT_EQ(slice->size(), 0u);
    EXPECT_EQ(slice->searchesPerformed(), 0u);
    EXPECT_FALSE(slice->search(Key::fromUint(1, 32)).hit);
    slice->checkIntegrity();
}

// --- Massive data evaluation and modification (section 1) -------------

TEST(SliceMassive, CountMatchingStreamsAllRows)
{
    const SliceConfig cfg = binaryConfig(4, 4);
    auto slice = makeSlice(cfg);
    for (uint64_t i = 0; i < 20; ++i)
        slice->insert(Record{Key::fromUint(i, 32), i});
    // Count everything with a fully wildcarded pattern... binary slice
    // keys are fully specified, so count an exact key instead.
    const uint64_t before = slice->searchAccesses();
    EXPECT_EQ(slice->countMatching(Key::fromUint(7, 32)), 1u);
    // One access per row.
    EXPECT_EQ(slice->searchAccesses() - before, cfg.rows());
}

TEST(SliceMassive, TernaryPatternCountsAndUpdates)
{
    SliceConfig cfg = binaryConfig(5, 4);
    cfg.ternary = true;
    auto slice = std::make_unique<CaRamSlice>(
        cfg, std::make_unique<hash::LowBitsIndex>(32, 5));
    // Records under 10.0.0.0/8 and one outside.
    for (uint64_t i = 0; i < 16; ++i) {
        slice->insert(
            Record{Key::fromUint(0x0a000000u + (i << 3), 32), 1});
    }
    slice->insert(Record{Key::fromUint(0x0b000000u, 32), 1});

    const Key pattern = Key::prefix(0x0a000000u, 8, 32);
    EXPECT_EQ(slice->countMatching(pattern), 16u);

    // Bulk rewrite the next hop of everything under 10/8.
    EXPECT_EQ(slice->updateMatching(pattern, 0x42), 16u);
    for (uint64_t i = 0; i < 16; ++i) {
        const auto r =
            slice->search(Key::fromUint(0x0a000000u + (i << 3), 32));
        ASSERT_TRUE(r.hit);
        EXPECT_EQ(r.data, 0x42u);
    }
    // The outside record is untouched.
    EXPECT_EQ(slice->search(Key::fromUint(0x0b000000u, 32)).data, 1u);
    slice->checkIntegrity();
}

TEST(SliceMassive, UpdateRequiresDataField)
{
    SliceConfig cfg = binaryConfig(4, 2);
    cfg.dataBits = 0;
    auto slice = makeSlice(cfg);
    EXPECT_THROW(slice->updateMatching(Key::fromUint(0, 32), 1),
                 caram::FatalError);
    EXPECT_THROW(slice->countMatching(Key::fromUint(0, 16)),
                 caram::FatalError);
}

// --- Non-power-of-two row spaces (odd vertical arrangements) ----------

TEST(SliceNonPow2, InsertSearchEraseOverModuloRows)
{
    // Five vertically arranged 2^4-row slices: 80 rows.
    SliceConfig shape;
    shape.indexBits = 4;
    shape.logicalKeyBits = 128;
    shape.slotsPerBucket = 2;
    shape.dataBits = 32;
    shape.maxProbeDistance = 15;
    const SliceConfig eff = shape.arranged(5, Arrangement::Vertical);
    ASSERT_EQ(eff.rows(), 80u);
    CaRamSlice slice(eff, std::make_unique<hash::DjbIndex>(
                              hash::DjbIndex::withBuckets(eff.rows())));

    caram::Rng rng(111);
    std::vector<Key> keys;
    for (int i = 0; i < 120; ++i) {
        std::string text = "w";
        for (int c = 0; c < 12; ++c)
            text.push_back(static_cast<char>('a' + rng.below(26)));
        keys.push_back(Key::fromString(text, 128));
        ASSERT_TRUE(
            slice.insert(Record{keys.back(), static_cast<uint64_t>(i)})
                .ok)
            << i;
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto r = slice.search(keys[i]);
        ASSERT_TRUE(r.hit) << i;
        EXPECT_EQ(r.data, i);
        EXPECT_LT(r.row, 80u);
    }
    slice.checkIntegrity();
    for (std::size_t i = 0; i < keys.size(); i += 3)
        EXPECT_EQ(slice.erase(keys[i]), 1u);
    slice.checkIntegrity();
}

TEST(SliceNonPow2, ProbingWrapsModuloRows)
{
    // 3 rows of 1 slot, everything hashed to the last row: probing must
    // wrap 2 -> 0 -> 1 without touching a power-of-two mask.
    SliceConfig cfg;
    cfg.indexBits = 2;
    cfg.rowOverride = 3;
    cfg.logicalKeyBits = 32;
    cfg.slotsPerBucket = 1;
    cfg.dataBits = 8;
    cfg.maxProbeDistance = 2;

    class LastRow : public hash::IndexGenerator
    {
      public:
        unsigned indexBits() const override { return 2; }
        uint64_t rowCount() const override { return 3; }
        uint64_t index(std::span<const uint64_t>,
                       unsigned) const override
        {
            return 2;
        }
        std::string name() const override { return "last-row"; }
    };

    CaRamSlice slice(cfg, std::make_unique<LastRow>());
    for (unsigned i = 0; i < 3; ++i) {
        const auto ins =
            slice.insert(Record{Key::fromUint(100 + i, 32), i});
        ASSERT_TRUE(ins.ok);
        EXPECT_EQ(ins.placements[0].placedRow, (2 + i) % 3);
    }
    // Full now.
    EXPECT_FALSE(slice.insert(Record{Key::fromUint(999, 32), 9}).ok);
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_TRUE(slice.search(Key::fromUint(100 + i, 32)).hit);
}

// --- Failure injection --------------------------------------------------

TEST(SliceFailureInjection, CorruptedAuxCountIsDetected)
{
    auto slice = makeSlice(binaryConfig(4, 2));
    slice->insert(Record{Key::fromUint(3, 32), 1});
    EXPECT_NO_FATAL_FAILURE(slice->checkIntegrity());
    // Scribble over the aux used-count through RAM mode (a stray RAM
    // write corrupting CAM-mode metadata must not go unnoticed).
    // Row 3's aux field lives at the end of its row.
    const SliceConfig &cfg = slice->config();
    BucketView b = slice->bucket(3);
    b.setUsedCount(2); // lies: only one slot is valid
    EXPECT_DEATH(slice->checkIntegrity(), "used count");
    (void)cfg;
}

TEST(SliceFailureInjection, LostRecordIsDetected)
{
    auto slice = makeSlice(binaryConfig(4, 2));
    slice->insert(Record{Key::fromUint(3, 32), 1});
    // Invalidate the slot behind the bookkeeping's back.
    BucketView b = slice->bucket(3);
    b.clearSlot(0);
    b.setUsedCount(0);
    EXPECT_DEATH(slice->checkIntegrity(), "tracked count");
}

// --- Property tests against a reference map ---------------------------

TEST(SliceProperty, AgreesWithReferenceMapUnderRandomOps)
{
    const SliceConfig cfg = binaryConfig(6, 3);
    auto slice = makeSlice(cfg);
    std::unordered_map<uint64_t, uint64_t> ref;
    caram::Rng rng(91);

    for (int op = 0; op < 4000; ++op) {
        const uint64_t raw = rng.below(400); // small key space: collisions
        const Key key = Key::fromUint(raw, 32);
        const double action = rng.uniform();
        if (action < 0.5) {
            if (ref.find(raw) == ref.end()) {
                const uint64_t data = rng.below(0xffff);
                if (slice->insert(Record{key, data}).ok)
                    ref[raw] = data;
            }
        } else if (action < 0.75) {
            const bool present = ref.erase(raw) > 0;
            EXPECT_EQ(slice->erase(key) > 0, present);
        } else {
            const auto r = slice->search(key);
            const auto it = ref.find(raw);
            ASSERT_EQ(r.hit, it != ref.end()) << "key " << raw;
            if (r.hit) {
                EXPECT_EQ(r.data, it->second);
            }
        }
    }
    EXPECT_EQ(slice->size(), ref.size());
    slice->checkIntegrity();

    // Recomputed stats are consistent with the incremental counters.
    const LoadStats s = slice->loadStats();
    EXPECT_EQ(s.records, ref.size());
    EXPECT_EQ(s.homeDemand.totalCount(), s.buckets);
}

TEST(SliceProperty, AmalEqualsMeanDistancePlusOne)
{
    const SliceConfig cfg = binaryConfig(5, 2);
    auto slice = makeSlice(cfg);
    caram::Rng rng(101);
    double total_cost = 0.0;
    unsigned n = 0;
    for (int i = 0; i < 60; ++i) {
        const Record rec{
            Key::fromUint(rng.next64() & 0xffffffffu, 32), 0};
        const auto ins = slice->insert(rec);
        if (!ins.ok)
            continue;
        total_cost += ins.maxDistance + 1.0;
        ++n;
    }
    ASSERT_GT(n, 0u);
    EXPECT_NEAR(slice->loadStats().amalUniform(), total_cost / n, 1e-12);
}

} // namespace
} // namespace caram::core
