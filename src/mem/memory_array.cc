#include "mem/memory_array.h"

#include <algorithm>
#include <cassert>

#include "common/bitops.h"
#include "common/logging.h"
#include "common/strings.h"

namespace caram::mem {

MemoryArray::MemoryArray(uint64_t rows, uint64_t row_bits)
    : numRows(rows), bitsPerRow(row_bits), rowWords(ceilDiv(row_bits, 64))
{
    if (rows == 0 || row_bits == 0)
        fatal("memory array dimensions must be nonzero");
    // Trailing guard words: rowData() readers may fetch a full vector
    // window starting at any in-row word (see kGuardWords).
    storage.assign(numRows * rowWords + kGuardWords, 0);
    assert(reinterpret_cast<uintptr_t>(storage.data()) %
               kStorageAlignment ==
           0);
}

void
MemoryArray::checkRow(uint64_t row) const
{
    if (row >= numRows)
        panic(strprintf("row %llu out of range (rows=%llu)",
                        (unsigned long long)row,
                        (unsigned long long)numRows));
}

uint64_t
MemoryArray::readBits(uint64_t row, uint64_t lo, unsigned len) const
{
    checkRow(row);
    assert(len >= 1 && len <= 64);
    assert(lo + len <= bitsPerRow);
    const uint64_t *base = storage.data() + row * rowWords;
    const uint64_t word = lo / 64;
    const unsigned off = static_cast<unsigned>(lo % 64);
    uint64_t value = base[word] >> off;
    if (off + len > 64)
        value |= base[word + 1] << (64 - off);
    return value & maskBits(len);
}

void
MemoryArray::writeBits(uint64_t row, uint64_t lo, unsigned len, uint64_t value)
{
    checkRow(row);
    assert(len >= 1 && len <= 64);
    assert(lo + len <= bitsPerRow);
    value &= maskBits(len);
    uint64_t *base = storage.data() + row * rowWords;
    const uint64_t word = lo / 64;
    const unsigned off = static_cast<unsigned>(lo % 64);
    base[word] = (base[word] & ~(maskBits(len) << off)) | (value << off);
    if (off + len > 64) {
        const unsigned hi_len = off + len - 64;
        base[word + 1] = (base[word + 1] & ~maskBits(hi_len)) |
                         (value >> (64 - off));
    }
}

void
MemoryArray::clearRow(uint64_t row)
{
    checkRow(row);
    std::fill_n(storage.data() + row * rowWords, rowWords, 0);
}

void
MemoryArray::clearAll()
{
    std::fill(storage.begin(), storage.end(), 0);
}

std::span<const uint64_t>
MemoryArray::rowSpan(uint64_t row) const
{
    checkRow(row);
    return {storage.data() + row * rowWords, rowWords};
}

void
MemoryArray::writeRow(uint64_t row, std::span<const uint64_t> src)
{
    checkRow(row);
    if (src.size() != rowWords)
        fatal("writeRow source size mismatch");
    std::copy(src.begin(), src.end(), storage.data() + row * rowWords);
}

uint64_t
MemoryArray::loadWord(uint64_t word_addr) const
{
    if (word_addr >= wordCount())
        fatal("RAM-mode load out of range");
    return storage[word_addr];
}

void
MemoryArray::storeWord(uint64_t word_addr, uint64_t value)
{
    if (word_addr >= wordCount())
        fatal("RAM-mode store out of range");
    storage[word_addr] = value;
}

} // namespace caram::mem
