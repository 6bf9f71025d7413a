#ifndef CARAM_MEM_MEMORY_ARRAY_H_
#define CARAM_MEM_MEMORY_ARRAY_H_

/**
 * @file
 * The dense conventional memory array at the heart of a CA-RAM slice
 * (paper section 3.1): 2^R rows of C bits each, with no per-row match
 * logic.  The same array also backs the RAM-mode linear address space
 * (section 3.2).
 *
 * Bit addressing convention: within a row, bit 0 is the least significant
 * bit of the first 64-bit word.  Fields (keys, data, auxiliary bits) are
 * located by a [low_bit, width) range.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "mem/aligned_alloc.h"

namespace caram::mem {

/** A 2-D bit array: rows x row_bits, stored packed in 64-bit words. */
class MemoryArray
{
  public:
    /** Row storage starts on a 64-byte boundary (one cache line / one
     *  AVX-512 register), so vector loads of row windows never split
     *  more cache lines than the data itself spans. */
    static constexpr std::size_t kStorageAlignment = 64;

    /**
     * Trailing guard words: rowData() readers may fetch a full 512-bit
     * window whose first word is the last word of the last row, so up
     * to 7 words past the allocation's data end must stay readable
     * (and zero).  Eight keeps the math simple and the storage aligned.
     */
    static constexpr std::size_t kGuardWords = 8;

    /**
     * @param rows     number of rows (buckets)
     * @param row_bits bits per row (the paper's C)
     */
    MemoryArray(uint64_t rows, uint64_t row_bits);

    uint64_t rows() const { return numRows; }
    uint64_t rowBits() const { return bitsPerRow; }
    uint64_t totalBits() const { return numRows * bitsPerRow; }
    uint64_t wordsPerRow() const { return rowWords; }

    /** Read up to 64 bits at [lo, lo+len) of @p row. */
    uint64_t readBits(uint64_t row, uint64_t lo, unsigned len) const;

    /** Write the low @p len bits of @p value at [lo, lo+len) of @p row. */
    void writeBits(uint64_t row, uint64_t lo, unsigned len, uint64_t value);

    /** Zero an entire row. */
    void clearRow(uint64_t row);

    /** Zero the whole array. */
    void clearAll();

    /** Read-only view of the packed words of @p row. */
    std::span<const uint64_t> rowSpan(uint64_t row) const;

    /**
     * Raw pointer to the packed words of @p row -- the zero-overhead
     * access the word-parallel match path compares against in place.
     * The storage ends with kGuardWords guard words, so readers may
     * fetch a 256/512-bit window starting at any in-row word (an
     * unaligned care field, a SIMD kernel's row window) without
     * leaving the allocation.
     */
    const uint64_t *
    rowData(uint64_t row) const
    {
        checkRow(row);
        return storage.data() + row * rowWords;
    }

    /** Mutable row pointer (tests that plant raw row contents). */
    uint64_t *
    rowData(uint64_t row)
    {
        checkRow(row);
        return storage.data() + row * rowWords;
    }

    /** Copy @p src (rowWords words) into @p row. */
    void writeRow(uint64_t row, std::span<const uint64_t> src);

    /**
     * RAM-mode linear access: the array viewed as rows*rowWords 64-bit
     * words in row-major order.  @p word_addr indexes that linear space.
     */
    uint64_t loadWord(uint64_t word_addr) const;
    void storeWord(uint64_t word_addr, uint64_t value);

    /** Number of 64-bit words in the RAM-mode linear space. */
    uint64_t wordCount() const { return numRows * rowWords; }

  private:
    void checkRow(uint64_t row) const;

    uint64_t numRows;
    uint64_t bitsPerRow;
    uint64_t rowWords;
    std::vector<uint64_t, AlignedAllocator<uint64_t, kStorageAlignment>>
        storage;
};

} // namespace caram::mem

#endif // CARAM_MEM_MEMORY_ARRAY_H_
