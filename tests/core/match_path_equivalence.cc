/**
 * @file
 * Differential tests of the word-parallel packed match path against the
 * legacy decode (reference) path.
 *
 * The packed path (MatchProcessor::pack + searchBucketPacked /
 * searchBucketBestPacked) evaluates slot matches as XOR+mask over the
 * raw row words; the reference path goes through BucketView accessors
 * and Key reconstruction.  Both must produce bit-identical results --
 * hit/miss, slot index, multiple-match flag, extracted data and key,
 * and under LPM the best-match selection -- over randomized
 * binary/ternary/LPM workloads, including keys spanning word boundaries
 * (N = 63, 64, 65, 144) and don't-care bits in hash positions.
 *
 * The sweep runs once under the default kernel dispatch and once per
 * *forced* comparator kernel (scalar / AVX2 / AVX-512), so every kernel
 * the runtime dispatch can select is pinned bit-identical to the
 * reference.  Each bucket differential runs at several row widths --
 * partial vector groups, whole 64-slot kernel chunks and rows spanning
 * three of them -- so every vector lane and every chunk is exercised.
 * The packed exact-equality scan behind erase is checked against the
 * Key-decoding reference the same way.
 */

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/cpuid.h"
#include "common/random.h"
#include "core/match_processor.h"
#include "core/slice.h"
#include "hash/bit_select.h"

namespace caram::core {
namespace {

/** Forces a comparator kernel for the guard's lifetime.  Processors
 *  sample the kernel at construction, so build them under the guard. */
struct KernelOverrideGuard
{
    explicit KernelOverrideGuard(simd::MatchKernel kernel)
    {
        simd::setMatchKernelOverride(kernel);
    }
    ~KernelOverrideGuard() { simd::setMatchKernelOverride(std::nullopt); }
};

Key
randomKey(Rng &rng, unsigned width, bool ternary, double care_p)
{
    Key k(width);
    for (unsigned p = 0; p < width; ++p) {
        const bool care = !ternary || rng.chance(care_p);
        k.setBitAt(p, rng.chance(0.5), care);
    }
    return k;
}

// ---------------------------------------------------------------------
// Bucket level: packed vs reference over one randomized bucket.

/** Row widths of the bucket differentials: one partial AVX-512 group,
 *  a full group plus a partial one, and rows of 1.5 and 3 64-slot
 *  kernel chunks. */
constexpr unsigned kSlotCounts[] = {8, 13, 96, 192};

/** A one-bucket fixture of @p slots slots; the 13-bit data field
 *  deliberately misaligns the slot stride. */
SliceConfig
bucketConfig(unsigned width, bool ternary, unsigned slots)
{
    SliceConfig cfg;
    cfg.indexBits = 2;
    cfg.logicalKeyBits = width;
    cfg.ternary = ternary;
    cfg.slotsPerBucket = slots;
    cfg.dataBits = 13;
    cfg.maxProbeDistance = 3;
    cfg.validate();
    return cfg;
}

/** Low-entropy keys so lookups hit, collide and multi-match often. */
Key
clusteredKey(Rng &rng, unsigned width, bool ternary)
{
    Key k = randomKey(rng, width, ternary, 0.6);
    // Zero most value bits to cluster the population.
    for (unsigned p = 0; p < width; ++p) {
        if (p % 8 != 0 && k.careBitAt(p))
            k.setBitAt(p, false, true);
    }
    return k;
}

/** A key of @p width don't-care bits: it matches every valid slot. */
Key
wildcardKey(unsigned width)
{
    Key k(width);
    for (unsigned p = 0; p < width; ++p)
        k.setBitAt(p, false, false);
    return k;
}

/** A fully specified key of @p width one bits. */
Key
onesKey(unsigned width)
{
    Key k(width);
    for (unsigned p = 0; p < width; ++p)
        k.setBitAt(p, true, true);
    return k;
}

/**
 * Set every bit of row 1 past its last slot (the aux field and the row
 * padding) and all of row 2.  A kernel lane that reads past the last
 * slot then sees a valid slot storing all ones, which a wildcard or
 * all-ones search key matches.
 */
void
poisonPastSlots(mem::MemoryArray &array, const SliceConfig &cfg)
{
    uint64_t *row = array.rowData(1);
    const uint64_t first = uint64_t{cfg.slotsPerBucket} * cfg.slotBits();
    for (uint64_t w = first / 64; w < array.wordsPerRow(); ++w)
        row[w] |= w == first / 64 ? ~maskBits(first % 64) : ~uint64_t{0};
    std::fill_n(array.rowData(2), array.wordsPerRow(), ~uint64_t{0});
}

/**
 * Refill row 1 of @p b: about one slot in five is left empty and one
 * in seven is written then cleared (an erased slot keeps its stale key
 * bits behind a zero valid bit); every third fill is sparse instead, so
 * a row's first match often sits in a late lane group.  The bits past
 * the last slot are poisoned.  Keys come from @p make; the valid ones
 * are returned.
 */
template <typename MakeKey>
std::vector<Key>
fillBucket(Rng &rng, const SliceConfig &cfg, mem::MemoryArray &array,
           BucketView &b, int fill, MakeKey make)
{
    array.clearRow(1);
    poisonPastSlots(array, cfg);
    const double empty_p = fill % 3 == 2 ? 0.85 : 0.2;
    std::vector<Key> stored;
    for (unsigned s = 0; s < cfg.slotsPerBucket; ++s) {
        if (rng.chance(empty_p))
            continue;
        const Key k = make();
        b.writeSlot(s, k, rng.below(1u << cfg.dataBits));
        if (rng.chance(0.15))
            b.clearSlot(s);
        else
            stored.push_back(k);
    }
    return stored;
}

void
runBucketDifferential(unsigned width, bool ternary, unsigned slots,
                      int fills)
{
    const SliceConfig cfg = bucketConfig(width, ternary, slots);
    mem::MemoryArray array(cfg.rows(), cfg.storageRowBits());
    BucketView b(array, cfg, 1);
    MatchProcessor mp(cfg);
    MatchProcessor::PackedKey packed;

    Rng rng(width * 1013u + slots * 7u + (ternary ? 1 : 0));
    auto clustered_key = [&] { return clusteredKey(rng, width, ternary); };

    const int kFills = fills;
    constexpr int kLookupsPerFill = 64;
    for (int fill = 0; fill < kFills; ++fill) {
        const std::vector<Key> stored =
            fillBucket(rng, cfg, array, b, fill, clustered_key);
        for (int i = 0; i < kLookupsPerFill; ++i) {
            // Half replays of a stored key (forced hits, including
            // exact ternary duplicates), a few wildcards (every valid
            // slot matches), the rest fresh random searches.
            const double r = rng.uniform();
            const Key search = !stored.empty() && r < 0.5
                ? stored[rng.below(stored.size())]
                : r < 0.55 ? wildcardKey(width)
                           : clustered_key();
            mp.pack(search, packed);

            const BucketMatch fast = mp.searchBucketPacked(b, packed);
            const BucketMatch ref = mp.searchBucket(b, search);
            ASSERT_EQ(fast.hit, ref.hit) << search.toString();
            if (ref.hit) {
                EXPECT_EQ(fast.slot, ref.slot);
                EXPECT_EQ(fast.multipleMatch, ref.multipleMatch);
                EXPECT_EQ(fast.data, ref.data);
                EXPECT_EQ(fast.key, ref.key);
            }

            const BucketMatch fbest =
                mp.searchBucketBestPacked(b, packed);
            const BucketMatch rbest = mp.searchBucketBest(b, search);
            ASSERT_EQ(fbest.hit, rbest.hit) << search.toString();
            if (rbest.hit) {
                EXPECT_EQ(fbest.slot, rbest.slot);
                EXPECT_EQ(fbest.multipleMatch, rbest.multipleMatch);
                EXPECT_EQ(fbest.data, rbest.data);
                EXPECT_EQ(fbest.key, rbest.key);
            }

            // Per-slot predicate agrees with the reference vector.
            const auto mv = mp.matchVector(b, search);
            unsigned ref_count = 0;
            for (unsigned s = 0; s < cfg.slotsPerBucket; ++s) {
                EXPECT_EQ(mp.slotMatchesPacked(b, s, packed), mv[s]);
                ref_count += mv[s] ? 1 : 0;
            }
            EXPECT_EQ(mp.countMatches(b, packed), ref_count);
        }
    }
}

class PackedVsReference
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{
};

/** The differential at every kSlotCounts width, with the fill count
 *  scaled so each width compares about as many slots as
 *  @p fills_at_8 fills of an 8-slot row. */
void
runAcrossSlotCounts(unsigned width, bool ternary, int fills_at_8)
{
    for (unsigned slots : kSlotCounts) {
        SCOPED_TRACE(::testing::Message() << slots << " slots");
        runBucketDifferential(
            width, ternary, slots,
            std::max(24, fills_at_8 * 8 / static_cast<int>(slots)));
    }
}

TEST_P(PackedVsReference, BucketSearchesAreIdentical)
{
    const auto [width, ternary] = GetParam();
    // > 10^5 lookups per variant on the 8-slot row.
    runAcrossSlotCounts(width, ternary, 1600);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, PackedVsReference,
    ::testing::Combine(::testing::Values(63u, 64u, 65u, 144u),
                       ::testing::Bool()));

/** Key widths of the forced-kernel sweeps: 32 keeps a ternary slot's
 *  value and care in one 64-bit window (the fused path), 63/65 straddle
 *  a word boundary, 64/128 are word-aligned, 144 is three words. */
const auto kKernelWidths =
    ::testing::Values(32u, 63u, 64u, 65u, 128u, 144u);
const auto kAllKernels = ::testing::Values(simd::MatchKernel::Scalar,
                                           simd::MatchKernel::Avx2,
                                           simd::MatchKernel::Avx512);

// The same differential under each *forced* kernel: what the runtime
// dispatch selects on another host must behave exactly like what it
// selects here.  (The suite above already covers whichever kernel the
// default dispatch picked, so the scalar leg is the interesting
// baseline on wide-SIMD hosts and vice versa.)
class KernelForcedEquivalence
    : public ::testing::TestWithParam<
          std::tuple<simd::MatchKernel, unsigned, bool>>
{
};

TEST_P(KernelForcedEquivalence, BucketSearchesAreIdentical)
{
    const auto [kernel, width, ternary] = GetParam();
    if (!simd::kernelAvailable(kernel))
        GTEST_SKIP() << "kernel " << simd::kernelName(kernel)
                     << " not available on this host/build";
    KernelOverrideGuard guard(kernel);
    runAcrossSlotCounts(width, ternary, 300);
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelForcedEquivalence,
                         ::testing::Combine(kAllKernels, kKernelWidths,
                                            ::testing::Bool()));

// ---------------------------------------------------------------------
// Exact equality (the erase scan): findEqualPacked against the
// reference scan that decodes every valid slot's Key and compares.

void
runEqualityDifferential(unsigned width, bool ternary, unsigned slots,
                        int fills)
{
    const SliceConfig cfg = bucketConfig(width, ternary, slots);
    mem::MemoryArray array(cfg.rows(), cfg.storageRowBits());
    BucketView b(array, cfg, 1);
    MatchProcessor mp(cfg);
    MatchProcessor::PackedKey packed;

    Rng rng(width * 2027u + slots * 11u + (ternary ? 1 : 0));
    // A small pool of keys, so a row holds several copies of one key.
    std::vector<Key> pool;
    for (unsigned i = 0; i < std::max(4u, slots / 4); ++i)
        pool.push_back(clusteredKey(rng, width, ternary));
    auto pooled = [&] { return pool[rng.below(pool.size())]; };

    // Near misses: a pooled key with one bit's value or (ternary) care
    // flipped -- equal values under different care masks must not
    // compare equal.  A binary slice also sees don't-care keys, which
    // no binary slot can store.
    auto near_miss = [&] {
        Key k = pooled();
        const unsigned p = static_cast<unsigned>(rng.below(width));
        if (ternary && rng.chance(0.5))
            k.setBitAt(p, k.valueBitAt(p), !k.careBitAt(p));
        else if (!ternary && rng.chance(0.3))
            k.setBitAt(p, false, false);
        else
            k.setBitAt(p, !k.valueBitAt(p), true);
        return k;
    };

    for (int fill = 0; fill < fills; ++fill) {
        fillBucket(rng, cfg, array, b, fill, pooled);
        for (int i = 0; i < 32; ++i) {
            // The all-ones key equals the poisoned bits past the row.
            const double r = rng.uniform();
            const Key search = r < 0.4 ? pooled()
                : r < 0.8              ? near_miss()
                : r < 0.85             ? onesKey(width)
                                       : clusteredKey(rng, width, ternary);
            mp.pack(search, packed);
            int want = -1;
            for (unsigned s = 0; s < slots && want < 0; ++s) {
                if (b.slotValid(s) && b.slotKey(s) == search)
                    want = static_cast<int>(s);
            }
            ASSERT_EQ(mp.findEqualPacked(b, packed), want)
                << search.toString();
        }
    }
}

class EqualityForced
    : public ::testing::TestWithParam<
          std::tuple<simd::MatchKernel, unsigned, bool>>
{
};

TEST_P(EqualityForced, FindEqualMatchesKeyDecode)
{
    const auto [kernel, width, ternary] = GetParam();
    if (!simd::kernelAvailable(kernel))
        GTEST_SKIP() << "kernel " << simd::kernelName(kernel)
                     << " not available on this host/build";
    KernelOverrideGuard guard(kernel);
    for (unsigned slots : kSlotCounts) {
        SCOPED_TRACE(::testing::Message() << slots << " slots");
        runEqualityDifferential(width, ternary, slots,
                                std::max(24, 1600 / static_cast<int>(slots)));
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, EqualityForced,
                         ::testing::Combine(kAllKernels, kKernelWidths,
                                            ::testing::Bool()));

// ---------------------------------------------------------------------
// Slice level: the full search path (candidate homes from don't-care
// hash bits, overflow probing, LPM chain scan) against a replica of the
// legacy decode path built from public APIs.

SearchResult
legacySearch(CaRamSlice &slice, const MatchProcessor &mp, const Key &key)
{
    const SliceConfig &cfg = slice.config();
    SearchResult best;
    for (uint64_t home : slice.homeRows(key)) {
        const unsigned reach = slice.bucket(home).reach();
        bool done = false;
        for (unsigned d = 0; d <= reach; ++d) {
            const uint64_t row = (home + d) % cfg.rows(); // Linear
            ++best.bucketsAccessed;
            BucketView b = slice.bucket(row);
            const BucketMatch m = cfg.lpm ? mp.searchBucketBest(b, key)
                                          : mp.searchBucket(b, key);
            if (!m.hit)
                continue;
            if (!cfg.lpm) {
                best.hit = true;
                best.multipleMatch = m.multipleMatch;
                best.row = row;
                best.slot = m.slot;
                best.data = m.data;
                best.key = m.key;
                done = true;
                break;
            }
            const unsigned pop = m.key.carePopcount();
            if (!best.hit || pop > best.key.carePopcount()) {
                best.hit = true;
                best.multipleMatch = m.multipleMatch;
                best.row = row;
                best.slot = m.slot;
                best.data = m.data;
                best.key = m.key;
            }
        }
        if (done)
            break;
    }
    return best;
}

void
expectSameResult(const SearchResult &fast, const SearchResult &ref,
                 const Key &key)
{
    ASSERT_EQ(fast.hit, ref.hit) << key.toString();
    EXPECT_EQ(fast.bucketsAccessed, ref.bucketsAccessed) << key.toString();
    if (!ref.hit)
        return;
    EXPECT_EQ(fast.row, ref.row) << key.toString();
    EXPECT_EQ(fast.slot, ref.slot) << key.toString();
    EXPECT_EQ(fast.multipleMatch, ref.multipleMatch) << key.toString();
    EXPECT_EQ(fast.data, ref.data) << key.toString();
    EXPECT_EQ(fast.key, ref.key) << key.toString();
}

TEST(MatchPathEquivalence, TernarySliceWithDontCareHashBits)
{
    SliceConfig cfg;
    cfg.indexBits = 6;
    cfg.logicalKeyBits = 65; // hash taps straddle the word boundary
    cfg.ternary = true;
    cfg.slotsPerBucket = 8;
    cfg.dataBits = 16;
    cfg.probe = ProbePolicy::Linear;
    cfg.maxProbeDistance = 8;
    cfg.validate();
    // Taps spread across the key, including positions randomized keys
    // leave don't-care (duplication / multi-bucket search).
    const std::vector<unsigned> taps = {0, 9, 21, 33, 47, 64};
    CaRamSlice slice(
        cfg, std::make_unique<hash::BitSelectIndex>(cfg.logicalKeyBits,
                                                    taps));
    MatchProcessor mp(cfg);

    Rng rng(4242);
    std::vector<Key> population;
    for (int i = 0; i < 180; ++i) {
        const Key k = randomKey(rng, cfg.logicalKeyBits, true, 0.9);
        if (slice.insert(Record{k, rng.below(1u << 16)}).ok)
            population.push_back(k);
    }
    ASSERT_GT(population.size(), 100u);

    for (int i = 0; i < 100000; ++i) {
        const Key search =
            rng.chance(0.4) ? population[rng.below(population.size())]
                            : randomKey(rng, cfg.logicalKeyBits, true,
                                        rng.chance(0.5) ? 1.0 : 0.85);
        const SearchResult ref = legacySearch(slice, mp, search);
        const SearchResult fast = slice.search(search);
        expectSameResult(fast, ref, search);
    }
}

TEST(MatchPathEquivalence, Lpm144BitSlice)
{
    const unsigned kb = 144; // 18-byte keys: IPv6-ish wide LPM
    SliceConfig cfg;
    cfg.indexBits = 6;
    cfg.logicalKeyBits = kb;
    cfg.ternary = true;
    cfg.lpm = true;
    cfg.slotsPerBucket = 8;
    cfg.dataBits = 20;
    cfg.probe = ProbePolicy::Linear;
    cfg.maxProbeDistance = 16;
    cfg.validate();
    // Top-bit taps, the IP-lookup arrangement: short prefixes leave
    // don't-cares in hash positions and get duplicated.
    std::vector<unsigned> taps;
    for (unsigned i = 0; i < cfg.indexBits; ++i)
        taps.push_back(i);
    CaRamSlice slice(
        cfg, std::make_unique<hash::BitSelectIndex>(kb, taps));
    MatchProcessor mp(cfg);

    Rng rng(99);
    auto random_bytes = [&](unsigned char *out) {
        for (unsigned i = 0; i < kb / 8; ++i)
            out[i] = static_cast<unsigned char>(rng.below(256));
    };
    std::vector<Key> inserted;
    for (int i = 0; i < 300; ++i) {
        unsigned char bytes[18];
        random_bytes(bytes);
        // Prefix lengths from 3 (duplicated 8x) to full width.
        const unsigned plen =
            static_cast<unsigned>(rng.inRange(3, kb));
        const Key k = Key::prefixFromBytes({bytes, 18}, plen, kb);
        if (slice.insert(Record{k, rng.below(1u << 20)}).ok)
            inserted.push_back(k);
    }
    ASSERT_GT(inserted.size(), 150u);

    for (int i = 0; i < 100000; ++i) {
        unsigned char bytes[18];
        random_bytes(bytes);
        Key search = Key::fromBytes({bytes, 18}, kb);
        if (rng.chance(0.5)) {
            // Walk under a stored prefix so long matches exist.
            const Key &p = inserted[rng.below(inserted.size())];
            for (unsigned pos = 0; pos < kb; ++pos) {
                if (p.careBitAt(pos))
                    search.setBitAt(pos, p.valueBitAt(pos));
            }
        }
        const SearchResult ref = legacySearch(slice, mp, search);
        const SearchResult fast = slice.search(search);
        expectSameResult(fast, ref, search);
    }
}

// massUpdate/massCount share the packed predicate; pin them too.
TEST(MatchPathEquivalence, MassEvaluationMatchesReferenceCount)
{
    SliceConfig cfg;
    cfg.indexBits = 5;
    cfg.logicalKeyBits = 63;
    cfg.ternary = true;
    cfg.slotsPerBucket = 4;
    cfg.dataBits = 8;
    cfg.maxProbeDistance = 4;
    cfg.validate();
    const std::vector<unsigned> taps = {0, 5, 11, 17, 23};
    CaRamSlice slice(
        cfg, std::make_unique<hash::BitSelectIndex>(cfg.logicalKeyBits,
                                                    taps));
    MatchProcessor mp(cfg);
    Rng rng(7);
    for (int i = 0; i < 90; ++i)
        slice.insert(Record{randomKey(rng, 63, true, 0.9),
                            rng.below(200)});
    for (int i = 0; i < 200; ++i) {
        const Key pattern = randomKey(rng, 63, true, 0.3);
        uint64_t ref = 0;
        for (uint64_t row = 0; row < cfg.rows(); ++row) {
            for (bool m : mp.matchVector(slice.bucket(row), pattern))
                ref += m ? 1 : 0;
        }
        EXPECT_EQ(slice.countMatching(pattern), ref);
    }
}

} // namespace
} // namespace caram::core
