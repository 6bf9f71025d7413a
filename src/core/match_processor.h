#ifndef CARAM_CORE_MATCH_PROCESSOR_H_
#define CARAM_CORE_MATCH_PROCESSOR_H_

/**
 * @file
 * Functional model of the CA-RAM match processor (paper sections 3.1 and
 * 3.3).  Its four steps are:
 *
 *   1. expand search key   -- replicate/align the key across the row
 *                             (hidden under the memory access)
 *   2. calculate match vector -- per-slot ternary comparison
 *   3. decode match vector -- priority encode, detect multi/no match
 *   4. extract result      -- multiplex out the matched record
 *
 * Comparison implements the extended single-bit comparator of
 * Figure 4(b): a bit matches when the values agree or when either the
 * search key's mask (Mi) or the stored key's mask (TMi) marks it
 * don't care.
 *
 * Two implementations coexist:
 *
 *  - The *word-parallel* path: step 1 is performed once per lookup by
 *    pack(), which snapshots the search key's value/care words into a
 *    reusable template (a software rendition of the hardware's
 *    key-expand stage, whose replication across slots is free wiring).
 *    searchBucketPacked() then evaluates the row's slots as XOR+AND
 *    over 64-bit words gathered from the row at each slot's bit
 *    offset, with a per-word early exit -- no bit-by-bit decode, no Key
 *    materialization, no allocation.  All CaRamSlice search paths use
 *    this.
 *  - The *reference* path (matchVector/searchBucket/searchBucketBest):
 *    the original per-slot comparison through BucketView accessors,
 *    kept as the oracle the differential tests check the fast path
 *    against.
 *
 * The word-parallel path itself dispatches between comparator kernels
 * (core/match_kernels.h): the scalar per-slot loop, an AVX2 kernel
 * comparing 4 slots per vector, and an AVX-512 kernel comparing 8.
 * One kernel call covers up to 64 slots of the row and returns their
 * match bitmap.  The kernel is sampled once at construction
 * (common/cpuid.h), so a processor never changes kernels mid-lifetime;
 * rebuilding the slice (or the processor) picks up a changed
 * override/environment.  All kernels feed the same
 * priority-encode/LPM/extract logic, which keeps them bit-identical
 * above the match vector by construction.
 */

#include <cstdint>
#include <vector>

#include "common/cpuid.h"
#include "common/key.h"
#include "core/bucket.h"
#include "core/config.h"
#include "core/match_kernels.h"

namespace caram::core {

/** Result of matching one bucket. */
struct BucketMatch
{
    bool hit = false;
    bool multipleMatch = false;
    unsigned slot = 0;
    uint64_t data = 0;
    Key key;
};

/** The decoupled match logic shared by a slice's bucket accesses. */
class MatchProcessor
{
  public:
    explicit MatchProcessor(const SliceConfig &config);

    /**
     * The expanded search key (step 1): the key's value and care words
     * in key space, zero-padded so every per-slot window reads inside
     * the buffers.  Pack once per lookup, reuse across every bucket
     * the lookup probes.  The buffers are reused across pack() calls
     * (per-slice scratch), so a steady-state search performs no
     * allocations.
     */
    struct PackedKey
    {
        /** Search value words, [0, keyWords). */
        std::vector<uint64_t> value;
        /** Search care words, same indexing; bits beyond the key width
         *  are zero, which masks the junk bits a gathered row word
         *  carries past the field. */
        std::vector<uint64_t> careMask;
        /** The original search key (for duplication / fallback). */
        Key key;
    };

    /** Step 1 of the word-parallel path: expand @p search into @p out. */
    void pack(const Key &search, PackedKey &out) const;

    /**
     * Steps 2-4 on the raw row words: priority-encoded first match among
     * valid slots, exactly as searchBucket() returns it, evaluated as
     * XOR+mask over 64-bit words in place.
     */
    BucketMatch searchBucketPacked(const BucketView &bucket,
                                   const PackedKey &packed) const;

    /**
     * Longest-prefix variant of the packed path: the matching slot with
     * the most specified stored bits (ties to the lowest slot), with the
     * per-slot popcount taken directly from the row's care words.
     */
    BucketMatch searchBucketBestPacked(const BucketView &bucket,
                                       const PackedKey &packed) const;

    /**
     * The first valid slot storing exactly @p packed's key (value and,
     * for a ternary slice, care mask), or -1 -- the same slot a scan
     * comparing bucket.slotKey(i) == packed.key would find, without
     * decoding a Key per slot.
     */
    int findEqualPacked(const BucketView &bucket,
                        const PackedKey &packed) const;

    /** Valid-and-matching test of one slot on the packed path. */
    bool slotMatchesPacked(const BucketView &bucket, unsigned slot,
                           const PackedKey &packed) const;

    /** Number of valid slots matching @p packed (massive evaluation). */
    unsigned countMatches(const BucketView &bucket,
                          const PackedKey &packed) const;

    /** The comparator kernel this processor dispatched to at build. */
    simd::MatchKernel kernel() const { return kernel_; }

    /**
     * Steps 1+2 of the reference path: the per-slot match vector.  A
     * slot is set when it is valid and its stored key ternary-matches
     * the search key.
     */
    std::vector<bool> matchVector(const BucketView &bucket,
                                  const Key &search) const;

    /**
     * Steps 3+4 on top of the match vector: priority-encoded first
     * match, as the hardware returns it (reference path).
     */
    BucketMatch searchBucket(const BucketView &bucket,
                             const Key &search) const;

    /**
     * Longest-prefix variant: among all matching slots, extract the one
     * with the most specified key bits (ties go to the lowest slot).
     * With buckets sorted on descending prefix length this returns the
     * same slot as the plain priority encoder (reference path).
     */
    BucketMatch searchBucketBest(const BucketView &bucket,
                                 const Key &search) const;

    /**
     * Word-level fast path of the slot comparison (the model the
     * hardware's parallel comparators implement); the test suite checks
     * it against Key::matches bit by bit.
     */
    static bool slotMatches(const BucketView &bucket, unsigned slot,
                            const Key &search, const SliceConfig &config);

  private:
    BucketMatch extract(const BucketView &bucket, unsigned slot,
                        bool multiple) const;

    unsigned storedCarePopcount(const uint64_t *row, unsigned s) const;

    /** Match (or, with @p exact, equality) bitmap of the up to
     *  @p count slots starting at @p start. */
    uint64_t chunkMatchMask(const uint64_t *row, unsigned start,
                            const PackedKey &packed, bool exact,
                            unsigned count = kernels::kChunkSlots) const;

    const SliceConfig *cfg;

    // Row layout derived from the configuration once: where a slot's
    // fields sit, and per key word the mask of bits inside the key
    // width.
    unsigned keyWords = 0; ///< ceil(logicalKeyBits / 64)
    kernels::SlotLayout layout_;
    std::vector<uint64_t> widthMask; ///< [keyWords]

    // Comparator kernel, sampled once at construction.
    simd::MatchKernel kernel_ = simd::MatchKernel::Scalar;
    kernels::SlotMatchFn slotFn_ = nullptr;
};

} // namespace caram::core

#endif // CARAM_CORE_MATCH_PROCESSOR_H_
