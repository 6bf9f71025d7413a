#include "hash/folding.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/logging.h"
#include "common/strings.h"

namespace caram::hash {

namespace {

/**
 * Read the R-bit chunk starting at bit @p lo from the packed key: one
 * shift of its word, plus a second word when the chunk straddles a
 * word boundary.  The last chunk is cut at the key width.
 */
uint64_t
chunkAt(std::span<const uint64_t> words, unsigned key_bits, unsigned lo,
        unsigned r)
{
    const unsigned len = std::min(r, key_bits - lo);
    const unsigned w = lo / 64;
    const unsigned off = lo % 64;
    uint64_t out = words[w] >> off;
    if (off + len > 64)
        out |= words[w + 1] << (64 - off);
    return out & maskBits(len);
}

} // namespace

XorFoldIndex::XorFoldIndex(unsigned r) : r_(r)
{
    if (r == 0 || r > 63)
        fatal("invalid xor-fold index width");
}

uint64_t
XorFoldIndex::index(std::span<const uint64_t> key_words,
                    unsigned key_bits) const
{
    uint64_t out = 0;
    for (unsigned lo = 0; lo < key_bits; lo += r_)
        out ^= chunkAt(key_words, key_bits, lo, r_);
    return out & maskBits(r_);
}

std::string
XorFoldIndex::name() const
{
    return strprintf("xor-fold{%u}", r_);
}

AddFoldIndex::AddFoldIndex(unsigned r) : r_(r)
{
    if (r == 0 || r > 63)
        fatal("invalid add-fold index width");
}

uint64_t
AddFoldIndex::index(std::span<const uint64_t> key_words,
                    unsigned key_bits) const
{
    uint64_t out = 0;
    for (unsigned lo = 0; lo < key_bits; lo += r_)
        out += chunkAt(key_words, key_bits, lo, r_);
    return out & maskBits(r_);
}

std::string
AddFoldIndex::name() const
{
    return strprintf("add-fold{%u}", r_);
}

} // namespace caram::hash
