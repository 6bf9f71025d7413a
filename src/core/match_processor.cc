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
    const unsigned slots = cfg->slotsPerBucket;
    keyWords = static_cast<unsigned>(ceilDiv(kb, 64));
    // Padded so a multi-key group starting at any real slot stays inside
    // the table; the pad lanes are excluded via the group's validMask
    // (base 0 keeps even an unconditional pad-lane gather inside the row).
    slotBitBase.assign(slots + kernels::kMaxLanes, 0);
    for (unsigned s = 0; s < slots; ++s)
        slotBitBase[s] = static_cast<uint64_t>(s) * cfg->slotBits();
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
    multiKeyFn_ = kernels::multiKeyMatchFn(kernel_);
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

uint32_t
MatchProcessor::groupValidMask(const uint64_t *row, unsigned start,
                               unsigned width) const
{
    const unsigned end =
        std::min(start + width, cfg->slotsPerBucket);
    uint32_t mask = 0;
    for (unsigned s = start; s < end; ++s) {
        mask |= static_cast<uint32_t>(slotValidRaw(row, s))
                << (s - start);
    }
    return mask;
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

void
MatchProcessor::packGroup(const PackedKey *const *keys, unsigned n,
                          PackedKeyGroup &out) const
{
    if (n > kernels::kMaxGroupKeys)
        fatal("packGroup: group exceeds kMaxGroupKeys");
    // Only the first keyWords transposed words are ever read by the
    // kernels, so only those need their absent lanes zeroed -- this
    // runs once per group per chain walk, so avoid touching the full
    // kWords-sized arrays.
    for (unsigned w = 0; w < keyWords; ++w) {
        uint64_t *vrow = out.valueT.data() + w * kernels::kMaxGroupKeys;
        uint64_t *crow = out.careT.data() + w * kernels::kMaxGroupKeys;
        for (unsigned k = 0; k < n; ++k) {
            vrow[k] = keys[k]->value[w];
            crow[k] = keys[k]->careMask[w];
        }
        for (unsigned k = n; k < kernels::kMaxGroupKeys; ++k) {
            vrow[k] = 0;
            crow[k] = 0;
        }
    }
    for (unsigned k = 0; k < n; ++k)
        out.keys[k] = keys[k];
    for (unsigned k = n; k < kernels::kMaxGroupKeys; ++k)
        out.keys[k] = nullptr;
    out.size = n;
    out.keyMask = (n >= 32) ? ~0u : ((1u << n) - 1);
}

void
MatchProcessor::multiKeyMatchMask(const uint64_t *row, unsigned start,
                                  const PackedKeyGroup &group,
                                  uint32_t keyMask,
                                  uint32_t out[kernels::kMaxLanes]) const
{
    // The multi-key kernels scalar-loop the slot dimension, so one call
    // covers a full kMaxLanes-slot window regardless of vector width.
    const uint32_t valid = groupValidMask(row, start, kernels::kMaxLanes);
    if (!valid || !keyMask) {
        std::fill_n(out, kernels::kMaxLanes, 0u);
        return;
    }
    kernels::MultiKeyArgs args;
    args.row = row;
    args.slotBitBase = slotBitBase.data() + start;
    args.validMask = valid;
    args.keyValueT = group.valueT.data();
    args.keyCareT = group.careT.data();
    args.keyMask = keyMask;
    args.keyWords = keyWords;
    args.keyBits = cfg->logicalKeyBits;
    args.ternary = cfg->ternary;
    multiKeyFn_(args, out);
}

void
MatchProcessor::searchBucketKeys(const BucketView &bucket,
                                 const PackedKeyGroup &group,
                                 uint32_t aliveMask, BucketMatch *out) const
{
    aliveMask &= group.keyMask;
    if (!aliveMask)
        return;
    if (kernel_ == simd::MatchKernel::Scalar) {
        // The scalar kernel gains nothing from key batching (the row
        // words would be re-gathered per key anyway); reuse the
        // single-key path, which is the semantic definition.
        for (uint32_t m = aliveMask; m; m &= m - 1) {
            const unsigned k =
                static_cast<unsigned>(std::countr_zero(m));
            out[k] = searchBucketPacked(bucket, *group.keys[k]);
        }
        return;
    }
    const uint64_t *row = bucket.rowData();
    int first[kernels::kMaxGroupKeys];
    bool multiple[kernels::kMaxGroupKeys];
    for (unsigned k = 0; k < kernels::kMaxGroupKeys; ++k) {
        first[k] = -1;
        multiple[k] = false;
    }
    // Keys drop out of `pending` once their verdict is final (a second
    // match seen), which shrinks the kernel's key set as the row scan
    // proceeds -- mirroring the serial path's early break.
    uint32_t pending = aliveMask;
    uint32_t masks[kernels::kMaxLanes];
    for (unsigned g = 0; g < cfg->slotsPerBucket && pending;
         g += kernels::kMaxLanes) {
        multiKeyMatchMask(row, g, group, pending, masks);
        const unsigned end =
            std::min(kernels::kMaxLanes, cfg->slotsPerBucket - g);
        for (unsigned l = 0; l < end; ++l) {
            for (uint32_t km = masks[l] & pending; km; km &= km - 1) {
                const unsigned k =
                    static_cast<unsigned>(std::countr_zero(km));
                if (first[k] < 0) {
                    first[k] = static_cast<int>(g + l);
                } else {
                    multiple[k] = true;
                    pending &= ~(1u << k);
                }
            }
        }
    }
    for (uint32_t m = aliveMask; m; m &= m - 1) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(m));
        out[k] = first[k] < 0
                     ? BucketMatch{}
                     : extract(bucket, static_cast<unsigned>(first[k]),
                               multiple[k]);
    }
}

void
MatchProcessor::searchBucketBestKeys(const BucketView &bucket,
                                     const PackedKeyGroup &group,
                                     uint32_t aliveMask,
                                     BucketMatch *out) const
{
    aliveMask &= group.keyMask;
    if (!aliveMask)
        return;
    if (kernel_ == simd::MatchKernel::Scalar) {
        for (uint32_t m = aliveMask; m; m &= m - 1) {
            const unsigned k =
                static_cast<unsigned>(std::countr_zero(m));
            out[k] = searchBucketBestPacked(bucket, *group.keys[k]);
        }
        return;
    }
    const uint64_t *row = bucket.rowData();
    int best[kernels::kMaxGroupKeys];
    unsigned bestPop[kernels::kMaxGroupKeys];
    unsigned matches[kernels::kMaxGroupKeys];
    for (unsigned k = 0; k < kernels::kMaxGroupKeys; ++k) {
        best[k] = -1;
        bestPop[k] = 0;
        matches[k] = 0;
    }
    uint32_t masks[kernels::kMaxLanes];
    for (unsigned g = 0; g < cfg->slotsPerBucket;
         g += kernels::kMaxLanes) {
        multiKeyMatchMask(row, g, group, aliveMask, masks);
        const unsigned end =
            std::min(kernels::kMaxLanes, cfg->slotsPerBucket - g);
        for (unsigned l = 0; l < end; ++l) {
            uint32_t km = masks[l];
            if (!km)
                continue;
            const unsigned s = g + l;
            // The ranking popcount depends only on the slot's stored
            // care, so it is shared across every key matching here.
            const unsigned pop = storedCarePopcount(row, s);
            for (; km; km &= km - 1) {
                const unsigned k =
                    static_cast<unsigned>(std::countr_zero(km));
                ++matches[k];
                if (best[k] < 0 || pop > bestPop[k]) {
                    best[k] = static_cast<int>(s);
                    bestPop[k] = pop;
                }
            }
        }
    }
    for (uint32_t m = aliveMask; m; m &= m - 1) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(m));
        out[k] = best[k] < 0
                     ? BucketMatch{}
                     : extract(bucket, static_cast<unsigned>(best[k]),
                               matches[k] > 1);
    }
}

unsigned
MatchProcessor::storedCarePopcount(const uint64_t *row, unsigned s) const
{
    const unsigned kb = cfg->logicalKeyBits;
    if (!cfg->ternary)
        return kb;
    const uint64_t care_base = slotBitBase[s] + kb;
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
