#ifndef CARAM_CORE_BUCKET_H_
#define CARAM_CORE_BUCKET_H_

/**
 * @file
 * Typed view of one CA-RAM bucket (memory row).
 *
 * Row layout (bit 0 first):
 *
 *   slot 0 | slot 1 | ... | slot S-1 | aux
 *
 * Each slot: value bits (logical key), care bits (if ternary), data
 * bits, valid bit.  The auxiliary field (paper section 3.1) keeps the
 * bucket's used-slot count and the overflow reach: "if the bucket had
 * overflows ... this field can keep a number indicating how far the
 * extended search effort should reach".
 */

#include <cstdint>

#include "common/key.h"
#include "core/config.h"
#include "mem/memory_array.h"

namespace caram::core {

/** Read/write accessor for one row of a slice's memory array. */
class BucketView
{
  public:
    BucketView(mem::MemoryArray &array, const SliceConfig &config,
               uint64_t row);

    unsigned slots() const { return cfg->slotsPerBucket; }
    uint64_t row() const { return rowIndex; }

    /** True when slot @p i holds a record. */
    bool slotValid(unsigned i) const;

    /** Reconstruct the stored key of slot @p i. */
    Key slotKey(unsigned i) const;

    /** Stored data of slot @p i. */
    uint64_t slotData(unsigned i) const;

    /** Store a record into slot @p i and mark it valid. */
    void writeSlot(unsigned i, const Key &key, uint64_t data);

    /** Invalidate slot @p i. */
    void clearSlot(unsigned i);

    /**
     * Valid bits of slots [64 * w, 64 * w + 64) as a mask, bit s for
     * slot 64 * w + s (bits past the last slot are zero), read from
     * the row words with shifts instead of one readBits() per slot.
     */
    uint64_t validMask(unsigned w) const;

    /** First invalid slot, or -1 when the bucket is full. */
    int firstFreeSlot() const;

    /** Number of valid slots according to the auxiliary field. */
    unsigned usedCount() const;

    /** Overflow reach recorded in the auxiliary field. */
    unsigned reach() const;

    void setUsedCount(unsigned count);
    void setReach(unsigned reach);

    /** Recount valid slots directly from the row (for integrity checks). */
    unsigned recountUsed() const;

    /**
     * Word-level ternary comparison of slot @p i against @p search
     * without reconstructing the stored Key -- the operation the match
     * processor's parallel comparators perform.  Ignores validity.
     */
    bool slotMatchesKey(unsigned i, const Key &search) const;

    /**
     * Raw packed words of this row (with the array's guard word behind
     * them) -- the in-place operand of the word-parallel match path;
     * see MatchProcessor::searchBucketPacked.
     */
    const uint64_t *rowData() const { return array_->rowData(rowIndex); }

  private:
    uint64_t slotBase(unsigned i) const;
    uint64_t auxBase() const;

    mem::MemoryArray *array_;
    const SliceConfig *cfg;
    uint64_t rowIndex;
};

} // namespace caram::core

#endif // CARAM_CORE_BUCKET_H_
