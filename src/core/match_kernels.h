#ifndef CARAM_CORE_MATCH_KERNELS_H_
#define CARAM_CORE_MATCH_KERNELS_H_

/**
 * @file
 * The interchangeable comparator kernels behind MatchProcessor's packed
 * search path.
 *
 * The hardware match processor compares every slot of the fetched row
 * against the expanded search key simultaneously (paper section 3.3,
 * "the search key is compared against the keys fetched from the
 * accessed row in parallel").  The host-side rendition gives each
 * vector lane one *slot*: a kernel call evaluates up to kChunkSlots
 * slots of a row and answers with a slot bitmap.
 *
 *   - scalar: one slot at a time, 64-bit XOR+AND with per-word early
 *     exit (always available; the portable fallback and the oracle the
 *     vector kernels are tested against)
 *   - AVX2: 4 slots per vector.  For each key word, one gather fetches
 *     every live lane's next row word; with the lane's previous word a
 *     per-lane variable shift pair aligns its slot's key word, and one
 *     XOR+AND compares the word of 4 slots at once
 *   - AVX-512: the same with 8 slots per vector and mask registers
 *
 * A lane's word index and shift follow from its slot's bit position,
 * slot * slotBits: a group's positions are the group base plus a
 * constant lane-stride vector, so the address arithmetic is a few
 * vector adds and shifts per group.  The valid bits arrive through one
 * more gather, and a lane drops out of the remaining key words (and
 * their gathers) as soon as it mismatches.  A ternary key of at most
 * 32 bits has its stored value and care fields in one 64-bit window,
 * so the care operand is a shift of the already aligned value word.
 *
 * The kernels answer "which of these slots are valid and match the
 * packed key" (or, in exact mode, store exactly the packed key) -- the
 * caller owns priority encoding, LPM ranking and extraction, which
 * keeps the kernels bit-identical by construction everywhere above
 * this line.
 *
 * The SIMD kernels carry per-function target attributes, so the file
 * compiles without -mavx2/-mavx512f and the binary stays runnable on
 * hosts without those ISA extensions; runtime dispatch (common/cpuid.h)
 * picks the widest kernel the executing CPU supports.
 */

#include <cstdint>

#include "common/cpuid.h"

namespace caram::core::kernels {

/** Slots one single-key kernel call evaluates at most (one bit each
 *  of the returned bitmap). */
inline constexpr unsigned kChunkSlots = 64;

/** Where every slot's fields sit in the row (see core/bucket.h). */
struct SlotLayout
{
    uint64_t slotBits = 0; ///< the slot stride
    unsigned keyBits = 0;  ///< logical key width
    unsigned keyWords = 0; ///< ceil(keyBits / 64)
    /** Slots store a care field, keyBits above the value field. */
    bool ternary = false;
    uint64_t validBit = 0; ///< offset of the valid bit within a slot
};

/** One single-key evaluation: slots [start, start + count) of a row. */
struct SlotArgs
{
    /** Packed row words.  A field's second word may lie one past the
     *  row: rows are contiguous and the array ends in guard words
     *  (mem::MemoryArray::kGuardWords). */
    const uint64_t *row;
    /** Packed search value words, meaningful in [0, keyWords). */
    const uint64_t *value;
    /** Packed search care words (zero beyond the key width, so they
     *  double as the width mask in match mode). */
    const uint64_t *care;
    /** Key-width mask words; read in exact ternary mode only. */
    const uint64_t *width;
    unsigned start; ///< first slot
    unsigned count; ///< slots to evaluate, <= kChunkSlots
    /**
     * false: ternary match (a stored don't-care bit matches anything).
     * true: exact equality -- a ternary slot must also store exactly
     * the search care mask.  A binary slot stores a fully specified
     * key, so for it both modes are the same test; callers only ask
     * binary slots about fully specified keys.
     */
    bool exact;
};

/**
 * Evaluate one chunk: bit l of the result is set when slot start + l
 * is valid and its stored key matches (or equals) the packed key.
 */
using SlotMatchFn = uint64_t (*)(const SlotLayout &layout,
                                 const SlotArgs &args);

/**
 * The single-key evaluator for @p kernel.  The caller must only request
 * kernels that are available (simd::kernelAvailable); asking for a
 * compiled-out kernel returns the scalar evaluator.
 */
SlotMatchFn slotMatchFn(simd::MatchKernel kernel);

} // namespace caram::core::kernels

#endif // CARAM_CORE_MATCH_KERNELS_H_
