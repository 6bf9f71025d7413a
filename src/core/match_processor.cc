#include "core/match_processor.h"

#include <algorithm>
#include <bit>

#include "cam/priority_encoder.h"
#include "common/bitops.h"
#include "common/logging.h"

namespace caram::core {

namespace {

/** 64 bits of a row starting at @p bitpos (the guard word / in-row
 *  layout makes the one-past read safe; callers mask excess bits). */
inline uint64_t
gather64(const uint64_t *row, uint64_t bitpos)
{
    const uint64_t w = bitpos / 64;
    const unsigned off = static_cast<unsigned>(bitpos % 64);
    if (off == 0)
        return row[w];
    return (row[w] >> off) | (row[w + 1] << (64 - off));
}

} // namespace

MatchProcessor::MatchProcessor(const SliceConfig &config) : cfg(&config)
{
    const unsigned kb = cfg->logicalKeyBits;
    keyWords = static_cast<unsigned>(ceilDiv(kb, 64));
    widthMask.assign(keyWords, ~uint64_t{0});
    if (kb % 64 != 0)
        widthMask[keyWords - 1] = maskBits(kb % 64);

    layout_.slotBits = cfg->slotBits();
    layout_.keyBits = kb;
    layout_.keyWords = keyWords;
    layout_.ternary = cfg->ternary;
    layout_.validBit = cfg->storedKeyBits() + cfg->dataBits;

    kernel_ = simd::activeMatchKernel();
    slotFn_ = kernels::slotMatchFn(kernel_);
}

void
MatchProcessor::pack(const Key &search, PackedKey &out) const
{
    if (search.bits() != cfg->logicalKeyBits)
        fatal("search key width does not match the slice configuration");
    out.key = search;
    // Padded to Key::kWords so every kernel may read a full key's worth
    // of words; the zero care padding masks the junk a gathered row
    // word carries past the key width.
    out.value.assign(Key::kWords, 0);
    out.careMask.assign(Key::kWords, 0);
    // Key words are normalized (care and value zero beyond the width),
    // so the careMask doubles as the width mask for gathered row words.
    const auto vw = search.valueWords();
    const auto cw = search.careWords();
    for (unsigned w = 0; w < keyWords; ++w) {
        out.value[w] = vw[w];
        out.careMask[w] = cw[w];
    }
}

uint64_t
MatchProcessor::chunkMatchMask(const uint64_t *row, unsigned start,
                               const PackedKey &packed, bool exact,
                               unsigned count) const
{
    kernels::SlotArgs args;
    args.row = row;
    args.value = packed.value.data();
    args.care = packed.careMask.data();
    args.width = widthMask.data();
    args.start = start;
    args.count = std::min(count, cfg->slotsPerBucket - start);
    args.exact = exact;
    return slotFn_(layout_, args);
}

unsigned
MatchProcessor::storedCarePopcount(const uint64_t *row, unsigned s) const
{
    const unsigned kb = cfg->logicalKeyBits;
    if (!cfg->ternary)
        return kb;
    const uint64_t care_base = uint64_t{s} * layout_.slotBits + kb;
    unsigned pop = 0;
    for (unsigned w = 0; w < keyWords; ++w) {
        pop += static_cast<unsigned>(std::popcount(
            gather64(row, care_base + 64u * w) & widthMask[w]));
    }
    return pop;
}

BucketMatch
MatchProcessor::searchBucketPacked(const BucketView &bucket,
                                   const PackedKey &packed) const
{
    const uint64_t *row = bucket.rowData();
    int first = -1;
    bool multiple = false;
    for (unsigned g = 0; g < cfg->slotsPerBucket && !multiple;
         g += kernels::kChunkSlots) {
        uint64_t mask = chunkMatchMask(row, g, packed, false);
        if (!mask)
            continue;
        if (first < 0) {
            first = static_cast<int>(
                g + static_cast<unsigned>(std::countr_zero(mask)));
            mask &= mask - 1; // a second bit here = multiple
        }
        multiple = mask != 0;
    }
    if (first < 0)
        return BucketMatch{};
    return extract(bucket, static_cast<unsigned>(first), multiple);
}

BucketMatch
MatchProcessor::searchBucketBestPacked(const BucketView &bucket,
                                       const PackedKey &packed) const
{
    const uint64_t *row = bucket.rowData();
    int best = -1;
    unsigned best_pop = 0;
    unsigned matches = 0;
    for (unsigned g = 0; g < cfg->slotsPerBucket;
         g += kernels::kChunkSlots) {
        for (uint64_t mask = chunkMatchMask(row, g, packed, false); mask;
             mask &= mask - 1) {
            const unsigned s =
                g + static_cast<unsigned>(std::countr_zero(mask));
            ++matches;
            const unsigned pop = storedCarePopcount(row, s);
            if (best < 0 || pop > best_pop) {
                best = static_cast<int>(s);
                best_pop = pop;
            }
        }
    }
    if (best < 0)
        return BucketMatch{};
    return extract(bucket, static_cast<unsigned>(best), matches > 1);
}

int
MatchProcessor::findEqualPacked(const BucketView &bucket,
                                const PackedKey &packed) const
{
    // A binary slot always stores a fully specified key.
    if (!cfg->ternary && !packed.key.fullySpecified())
        return -1;
    const uint64_t *row = bucket.rowData();
    for (unsigned g = 0; g < cfg->slotsPerBucket;
         g += kernels::kChunkSlots) {
        const uint64_t mask = chunkMatchMask(row, g, packed, true);
        if (mask)
            return static_cast<int>(
                g + static_cast<unsigned>(std::countr_zero(mask)));
    }
    return -1;
}

bool
MatchProcessor::slotMatchesPacked(const BucketView &bucket, unsigned slot,
                                  const PackedKey &packed) const
{
    const uint64_t *row = bucket.rowData();
    return chunkMatchMask(row, slot, packed, false, 1) != 0;
}

unsigned
MatchProcessor::countMatches(const BucketView &bucket,
                             const PackedKey &packed) const
{
    const uint64_t *row = bucket.rowData();
    unsigned matched = 0;
    for (unsigned g = 0; g < cfg->slotsPerBucket;
         g += kernels::kChunkSlots) {
        matched += static_cast<unsigned>(
            std::popcount(chunkMatchMask(row, g, packed, false)));
    }
    return matched;
}

std::vector<bool>
MatchProcessor::matchVector(const BucketView &bucket,
                            const Key &search) const
{
    if (search.bits() != cfg->logicalKeyBits)
        fatal("search key width does not match the slice configuration");
    std::vector<bool> mv(bucket.slots(), false);
    for (unsigned i = 0; i < bucket.slots(); ++i) {
        mv[i] = bucket.slotValid(i) && bucket.slotMatchesKey(i, search);
    }
    return mv;
}

BucketMatch
MatchProcessor::extract(const BucketView &bucket, unsigned slot,
                        bool multiple) const
{
    // Decode the winning slot straight from the row words; this runs
    // once per hit, after the match was already decided.
    const uint64_t *row = bucket.rowData();
    const unsigned kb = cfg->logicalKeyBits;
    const uint64_t base = uint64_t{slot} * cfg->slotBits();
    BucketMatch m;
    m.hit = true;
    m.multipleMatch = multiple;
    m.slot = slot;
    if (cfg->dataBits != 0) {
        m.data = gather64(row, base + cfg->storedKeyBits()) &
                 maskBits(cfg->dataBits);
    }
    uint64_t v[Key::kWords];
    uint64_t c[Key::kWords];
    const unsigned words = static_cast<unsigned>(ceilDiv(kb, 64));
    for (unsigned j = 0; j < words; ++j) {
        v[j] = gather64(row, base + 64u * j);
        c[j] = cfg->ternary ? gather64(row, base + kb + 64u * j)
                            : ~uint64_t{0};
    }
    // fromWords normalizes bits beyond the width and value bits outside
    // the care mask, so the gathered excess bits are harmless.
    m.key = Key::fromWords({v, words}, {c, words}, kb);
    return m;
}

BucketMatch
MatchProcessor::searchBucket(const BucketView &bucket,
                             const Key &search) const
{
    const auto mv = matchVector(bucket, search);
    const auto enc = cam::priorityEncode(mv);
    if (!enc.anyMatch)
        return BucketMatch{};
    return extract(bucket, static_cast<unsigned>(enc.index),
                   enc.multipleMatch);
}

BucketMatch
MatchProcessor::searchBucketBest(const BucketView &bucket,
                                 const Key &search) const
{
    const auto mv = matchVector(bucket, search);
    int best = -1;
    unsigned best_pop = 0;
    unsigned matches = 0;
    for (unsigned i = 0; i < mv.size(); ++i) {
        if (!mv[i])
            continue;
        ++matches;
        const unsigned pop = bucket.slotKey(i).carePopcount();
        if (best < 0 || pop > best_pop) {
            best = static_cast<int>(i);
            best_pop = pop;
        }
    }
    if (best < 0)
        return BucketMatch{};
    return extract(bucket, static_cast<unsigned>(best), matches > 1);
}

bool
MatchProcessor::slotMatches(const BucketView &bucket, unsigned slot,
                            const Key &search, const SliceConfig &config)
{
    (void)config;
    return bucket.slotMatchesKey(slot, search);
}

} // namespace caram::core
