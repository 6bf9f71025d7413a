/** @file Differential suite for CaRamSlice::insertBatch: bulk-loaded
 *  tables must be *bit-identical* to record-at-a-time insert() -- raw
 *  rows, aux fields, placement statistics and per-record outcomes --
 *  across binary/ternary/LPM key mixes, overflow probing (Linear,
 *  SecondHash, None), rollback residue of failed records, erase-created
 *  slot holes, rows wider than one 64-slot valid mask and
 *  chunk-boundary crossings. */

#include "core/slice.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "hash/bit_select.h"

namespace caram::core {
namespace {

/** Index generator factory; default = LowBitsIndex, ternary tests
 *  override with BitSelectIndex (candidate enumeration). */
using GenFactory =
    std::function<std::unique_ptr<hash::IndexGenerator>()>;

std::unique_ptr<CaRamSlice>
makeSlice(const SliceConfig &cfg, const GenFactory &gen = {})
{
    if (gen)
        return std::make_unique<CaRamSlice>(cfg, gen());
    return std::make_unique<CaRamSlice>(
        cfg, std::make_unique<hash::LowBitsIndex>(cfg.logicalKeyBits,
                                                  cfg.indexBits));
}

/** The word-shifted valid masks the bulk ingest reads agree with the
 *  per-slot readBits() path on every row. */
void
expectValidMasksMatchSlots(CaRamSlice &slice)
{
    const unsigned slots = slice.config().slotsPerBucket;
    for (uint64_t row = 0; row < slice.config().rows(); ++row) {
        const BucketView b = slice.bucket(row);
        for (unsigned w = 0; w * 64 < slots; ++w) {
            uint64_t want = 0;
            for (unsigned s = 0; s < 64 && w * 64 + s < slots; ++s)
                want |= uint64_t{b.slotValid(w * 64 + s)} << s;
            ASSERT_EQ(b.validMask(w), want)
                << "row " << row << " mask word " << w;
        }
    }
}

/** Raw rows, aux integrity and every placement statistic agree. */
void
expectIdentical(CaRamSlice &serial, CaRamSlice &batched)
{
    const mem::MemoryArray &a = serial.array();
    const mem::MemoryArray &b = batched.array();
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.wordsPerRow(), b.wordsPerRow());
    for (uint64_t row = 0; row < a.rows(); ++row) {
        const uint64_t *ra = a.rowData(row);
        const uint64_t *rb = b.rowData(row);
        for (uint64_t w = 0; w < a.wordsPerRow(); ++w) {
            ASSERT_EQ(ra[w], rb[w])
                << "row " << row << " word " << w << " differs";
        }
    }
    EXPECT_EQ(serial.size(), batched.size());
    const LoadStats sa = serial.loadStats();
    const LoadStats sb = batched.loadStats();
    EXPECT_EQ(sa.records, sb.records);
    EXPECT_EQ(sa.spilledRecords, sb.spilledRecords);
    EXPECT_EQ(sa.overflowingBuckets, sb.overflowingBuckets);
    EXPECT_EQ(sa.distance.bins(), sb.distance.bins());
    EXPECT_EQ(sa.homeDemand.bins(), sb.homeDemand.bins());
    EXPECT_DOUBLE_EQ(sa.amalUniform(), sb.amalUniform());
    serial.checkIntegrity();
    batched.checkIntegrity();
    expectValidMasksMatchSlots(batched);
}

/** Feed @p records serially into one slice and batched into another
 *  (both seeded by @p prepare), then compare everything. */
void
runDifferential(const SliceConfig &cfg,
                const std::vector<Record> &records,
                const std::function<void(CaRamSlice &)> &prepare = {},
                const GenFactory &gen = {})
{
    auto serial = makeSlice(cfg, gen);
    auto batched = makeSlice(cfg, gen);
    if (prepare) {
        prepare(*serial);
        prepare(*batched);
    }

    std::vector<InsertSummary> want;
    want.reserve(records.size());
    for (const Record &rec : records)
        want.push_back(serial->insert(rec));

    std::vector<InsertOutcome> got(records.size());
    const InsertBatchSummary sum =
        batched->insertBatch(records, got.data());

    uint64_t accepted = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(got[i].ok, want[i].ok) << "record " << i;
        EXPECT_EQ(got[i].copies, want[i].copies) << "record " << i;
        EXPECT_EQ(got[i].maxDistance, want[i].maxDistance)
            << "record " << i;
        accepted += want[i].ok ? 1 : 0;
    }
    EXPECT_EQ(sum.accepted, accepted);
    EXPECT_EQ(sum.failed, records.size() - accepted);
    // The batch never touches a row more often than the serial loop.
    EXPECT_LE(sum.rowFetches, sum.serialRowFetches);
    EXPECT_LE(sum.rowWritebacks, sum.serialRowWritebacks);

    expectIdentical(*serial, *batched);
}

/** Bursty trains of same-bucket keys, enough to overflow and fail. */
std::vector<Record>
burstyBinary(const SliceConfig &cfg, unsigned count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Record> out;
    const uint64_t buckets = cfg.rows();
    while (out.size() < count) {
        const uint64_t bucket = rng.below(buckets);
        const unsigned train = 1 + static_cast<unsigned>(rng.below(6));
        for (unsigned t = 0; t < train && out.size() < count; ++t) {
            const uint64_t high = rng.below(1u << 20);
            out.push_back(Record{
                Key::fromUint(bucket | (high << cfg.indexBits), 32),
                rng.below(uint64_t{1} << cfg.dataBits)});
        }
    }
    return out;
}

/**
 * Binary linear-probing shapes whose rows need more than one 64-slot
 * valid mask: 8 rows of 96 slots of 49 bits and of 192 slots of 46
 * bits, so slot boundaries and valid bits straddle row words.
 */
std::vector<SliceConfig>
wideRowShapes()
{
    std::vector<SliceConfig> out;
    for (const auto &[slots, data_bits] :
         {std::pair{96u, 16u}, std::pair{192u, 13u}}) {
        SliceConfig cfg;
        cfg.indexBits = 3;
        cfg.logicalKeyBits = 32;
        cfg.slotsPerBucket = slots;
        cfg.dataBits = data_bits;
        cfg.probe = ProbePolicy::Linear;
        cfg.maxProbeDistance = 2;
        EXPECT_NE(cfg.slotBits() % 64, 0u);
        out.push_back(cfg);
    }
    return out;
}

TEST(InsertBatchDifferential, BinaryLinearBurstyWithFailures)
{
    SliceConfig cfg;
    cfg.indexBits = 6;
    cfg.logicalKeyBits = 32;
    cfg.slotsPerBucket = 4;
    cfg.dataBits = 16;
    cfg.probe = ProbePolicy::Linear;
    cfg.maxProbeDistance = 3; // tight: bursty trains overflow and fail
    runDifferential(cfg, burstyBinary(cfg, 300, 1));
    // Wide rows, loaded to 130% of their slots so trains fail too.
    for (const SliceConfig &wide : wideRowShapes()) {
        SCOPED_TRACE(::testing::Message()
                     << wide.slotsPerBucket << " slots per row");
        const auto count = static_cast<unsigned>(
            wide.rows() * wide.slotsPerBucket * 13 / 10);
        runDifferential(wide, burstyBinary(wide, count, 10));
    }
}

TEST(InsertBatchDifferential, ProbeNoneFillsAndRejects)
{
    SliceConfig cfg;
    cfg.indexBits = 4;
    cfg.logicalKeyBits = 32;
    cfg.slotsPerBucket = 2;
    cfg.dataBits = 8;
    cfg.probe = ProbePolicy::None;
    cfg.maxProbeDistance = 0;
    runDifferential(cfg, burstyBinary(cfg, 80, 2));
}

TEST(InsertBatchDifferential, SecondHashHomeDependentProbes)
{
    SliceConfig cfg;
    cfg.indexBits = 5;
    cfg.logicalKeyBits = 32;
    cfg.slotsPerBucket = 2;
    cfg.dataBits = 16;
    cfg.probe = ProbePolicy::SecondHash;
    cfg.maxProbeDistance = 6;
    runDifferential(cfg, burstyBinary(cfg, 120, 3));
}

/** Pre-state with erase-created holes: insert @p count random keys,
 *  then erase every other one that was placed. */
std::function<void(CaRamSlice &)>
eraseHoles(unsigned count)
{
    return [count](CaRamSlice &s) {
        Rng rng(77);
        std::vector<Key> keys;
        for (unsigned i = 0; i < count; ++i) {
            const Key k = Key::fromUint(rng.below(1u << 24), 32);
            if (s.insert(Record{k, i}).ok)
                keys.push_back(k);
        }
        for (std::size_t i = 0; i < keys.size(); i += 2)
            s.erase(keys[i]);
    };
}

TEST(InsertBatchDifferential, EraseHolesChangeSlotChoice)
{
    SliceConfig cfg;
    cfg.indexBits = 5;
    cfg.logicalKeyBits = 32;
    cfg.slotsPerBucket = 4;
    cfg.dataBits = 16;
    cfg.probe = ProbePolicy::Linear;
    cfg.maxProbeDistance = 4;
    // Pre-state with erase-created holes: slots where the aux used
    // count no longer points at the first free slot, so insertAt()'s
    // fast path and firstFreeSlot() disagree -- the simulation must
    // reproduce the exact serial choice.
    runDifferential(cfg, burstyBinary(cfg, 150, 4), eraseHoles(100));
    // Wide rows filled to about 85% before the erases, so holes open
    // above slot 64, in the rows' second and third valid-mask words.
    for (const SliceConfig &wide : wideRowShapes()) {
        SCOPED_TRACE(::testing::Message()
                     << wide.slotsPerBucket << " slots per row");
        const auto fill = static_cast<unsigned>(
            wide.rows() * wide.slotsPerBucket * 85 / 100);
        const auto prepare = eraseHoles(fill);
        auto probe = makeSlice(wide);
        prepare(*probe);
        // Holes: free slots at 64 or above with a live slot after them.
        unsigned high_holes = 0;
        for (uint64_t row = 0; row < wide.rows(); ++row) {
            const BucketView b = probe->bucket(row);
            int last = -1;
            for (unsigned i = 0; i < b.slots(); ++i)
                last = b.slotValid(i) ? static_cast<int>(i) : last;
            for (int i = 64; i < last; ++i)
                high_holes += b.slotValid(static_cast<unsigned>(i)) ? 0 : 1;
        }
        EXPECT_GT(high_holes, 0u) << "no erase hole above slot 64";
        runDifferential(wide, burstyBinary(wide, fill / 2, 11), prepare);
    }
}

TEST(InsertBatchDifferential, TernaryMultiHomeDuplication)
{
    SliceConfig cfg;
    cfg.indexBits = 4;
    cfg.logicalKeyBits = 16;
    cfg.ternary = true;
    cfg.slotsPerBucket = 2;
    cfg.dataBits = 8;
    cfg.probe = ProbePolicy::Linear;
    cfg.maxProbeDistance = 2; // small: duplicated copies fail + roll back
    Rng rng(5);
    std::vector<Record> records;
    for (unsigned i = 0; i < 120; ++i) {
        const uint64_t value = rng.below(1u << 16);
        uint64_t care = 0xffff;
        if (rng.chance(0.4)) {
            // Don't-care bits in hash positions (the low indexBits):
            // the record duplicates into every candidate home.
            care &= ~rng.below(1u << 3);
        }
        if (rng.chance(0.3))
            care &= ~(rng.below(1u << 4) << 8); // non-hash don't-cares
        records.push_back(
            Record{Key::ternary(value & care, care, 16), rng.below(256)});
    }
    runDifferential(cfg, records, {}, [] {
        // Hash taps on the low 4 bits of the 16-bit key, with
        // candidate enumeration for don't-care hash bits.
        return std::make_unique<hash::BitSelectIndex>(
            hash::BitSelectIndex::lastBitsOfFirst16(16, 4));
    });
}

TEST(InsertBatchDifferential, LpmPrefixMix)
{
    SliceConfig cfg;
    cfg.indexBits = 6;
    cfg.logicalKeyBits = 32;
    cfg.ternary = true;
    cfg.lpm = true;
    cfg.slotsPerBucket = 4;
    cfg.dataBits = 16;
    cfg.probe = ProbePolicy::Linear;
    cfg.maxProbeDistance = 4;
    // The paper's IP index: hash taps on value bits [16, 22), so a
    // /12../15 prefix leaves 1..4 don't-care hash bits (2..16
    // candidate homes) while /16 and longer are single-home.
    Rng rng(6);
    std::vector<Record> records;
    for (unsigned i = 0; i < 150; ++i) {
        const unsigned len = 12 + static_cast<unsigned>(rng.below(13));
        const uint64_t value =
            rng.below(uint64_t{1} << 32) & ~((uint64_t{1} << (32 - len)) - 1);
        records.push_back(Record{Key::prefix(value, len, 32), len});
    }
    runDifferential(cfg, records, {}, [] {
        return std::make_unique<hash::BitSelectIndex>(
            hash::BitSelectIndex::lastBitsOfFirst16(32, 6));
    });
}

TEST(InsertBatchDifferential, DuplicateRecordsAcrossChunkBoundaries)
{
    SliceConfig cfg;
    cfg.indexBits = 8;
    cfg.logicalKeyBits = 32;
    cfg.slotsPerBucket = 4;
    cfg.dataBits = 16;
    cfg.probe = ProbePolicy::Linear;
    cfg.maxProbeDistance = 8;
    // > kMaxIngestBatch records so several chunks run, with repeated
    // identical records landing in different chunks.
    Rng rng(7);
    std::vector<Record> records = burstyBinary(cfg, 550, 8);
    for (unsigned i = 0; i < 80; ++i) {
        const std::size_t src = rng.below(records.size());
        records.push_back(records[src]);
    }
    ASSERT_GT(records.size(), CaRamSlice::kMaxIngestBatch);
    runDifferential(cfg, records);
}

TEST(InsertBatchDifferential, RowOpEconomyOnBurstyLoad)
{
    // Not a bit-identity check: the whole point of the batch -- a
    // bursty load (many records per distinct bucket) must touch far
    // fewer rows than the record-at-a-time reference accounting.
    SliceConfig cfg;
    cfg.indexBits = 8;
    cfg.logicalKeyBits = 32;
    cfg.slotsPerBucket = 8;
    cfg.dataBits = 16;
    cfg.probe = ProbePolicy::Linear;
    cfg.maxProbeDistance = 8;
    Rng rng(9);
    std::vector<Record> records;
    for (uint64_t bucket = 0; bucket < cfg.rows(); ++bucket) {
        for (unsigned t = 0; t < 6; ++t) {
            records.push_back(Record{
                Key::fromUint(bucket | (rng.below(1u << 20) << 8), 32),
                rng.below(1u << 16)});
        }
    }
    auto slice = makeSlice(cfg);
    const InsertBatchSummary sum = slice->insertBatch(records);
    EXPECT_EQ(sum.failed, 0u);
    EXPECT_GE(sum.rowOpReduction(), 3.0)
        << "6 records per bucket should amortize most row touches";
}

} // namespace
} // namespace caram::core
