/** @file Tests for the index generators and the hash-bit optimizer. */

#include "hash/bit_select.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <unordered_set>

#include "common/key.h"
#include "common/logging.h"
#include "common/random.h"
#include "hash/bit_selection_optimizer.h"
#include "hash/djb.h"
#include "hash/folding.h"

namespace caram::hash {
namespace {

Key
ipKey(uint32_t addr)
{
    return Key::fromUint(addr, 32);
}

TEST(BitSelect, SelectsNamedPositions)
{
    // Address 0b1000...0001 (bit 0 and bit 31 set, MSB numbering).
    const Key k = ipKey(0x80000001u);
    BitSelectIndex msb(32, {0});
    EXPECT_EQ(msb.index(k.valueWords(), 32), 1u);
    BitSelectIndex lsb_pos(32, {31});
    EXPECT_EQ(lsb_pos.index(k.valueWords(), 32), 1u);
    BitSelectIndex middle(32, {15});
    EXPECT_EQ(middle.index(k.valueWords(), 32), 0u);
}

TEST(BitSelect, OrderDefinesSignificance)
{
    const Key k = ipKey(0x40000000u); // MSB position 1 set
    BitSelectIndex a(32, {0, 1});
    BitSelectIndex b(32, {1, 0});
    EXPECT_EQ(a.index(k.valueWords(), 32), 0b01u);
    EXPECT_EQ(b.index(k.valueWords(), 32), 0b10u);
}

TEST(BitSelect, LastBitsOfFirst16)
{
    const auto gen = BitSelectIndex::lastBitsOfFirst16(32, 11);
    EXPECT_EQ(gen.indexBits(), 11u);
    EXPECT_EQ(gen.positions().front(), 5u);
    EXPECT_EQ(gen.positions().back(), 15u);
    // The index equals address bits [16, 27) from the LSB side.
    const uint32_t addr = 0x12345678u;
    const Key k = ipKey(addr);
    EXPECT_EQ(gen.index(k.valueWords(), 32), (addr >> 16) & 0x7ffu);
}

TEST(BitSelect, RejectsBadConfigs)
{
    EXPECT_THROW(BitSelectIndex(32, {}), caram::FatalError);
    EXPECT_THROW(BitSelectIndex(32, {32}), caram::FatalError);
    EXPECT_THROW(BitSelectIndex::lastBitsOfFirst16(32, 0),
                 caram::FatalError);
    EXPECT_THROW(BitSelectIndex::lastBitsOfFirst16(32, 17),
                 caram::FatalError);
    BitSelectIndex gen(32, {0});
    const Key k = Key::fromUint(1, 16);
    EXPECT_THROW(gen.index(k.valueWords(), 16), caram::FatalError);
}

TEST(BitSelect, CandidateIndicesFullySpecified)
{
    const auto gen = BitSelectIndex::lastBitsOfFirst16(32, 8);
    const Key k = ipKey(0x0a0b0000u);
    std::vector<uint64_t> out;
    gen.candidateIndices(k.valueWords(), k.careWords(), 32, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], gen.index(k.valueWords(), 32));
}

TEST(BitSelect, CandidateIndicesDuplicateForDontCare)
{
    // /14 prefix with R = 4 over positions [12, 16): 2 wildcard bits.
    const auto gen = BitSelectIndex::lastBitsOfFirst16(32, 4);
    const Key k = Key::prefix(0x0a0b0000u, 14, 32);
    std::vector<uint64_t> out;
    gen.candidateIndices(k.valueWords(), k.careWords(), 32, out);
    ASSERT_EQ(out.size(), 4u); // 2^2 buckets
    std::unordered_set<uint64_t> unique(out.begin(), out.end());
    EXPECT_EQ(unique.size(), 4u);
    // Every candidate agrees on the specified positions 12..13.
    const uint64_t specified_mask = 0b1100;
    for (uint64_t idx : out)
        EXPECT_EQ(idx & specified_mask, out[0] & specified_mask);
}

TEST(BitSelect, DuplicationMatchesPaperFormula)
{
    // A /len prefix duplicated into 2^(16-len) buckets when hash bits
    // cover [16-R, 16) and len < 16 (paper section 4.1).
    const auto gen = BitSelectIndex::lastBitsOfFirst16(32, 11);
    for (unsigned len = 8; len <= 16; ++len) {
        const Key k = Key::prefix(0xab000000u, len, 32);
        std::vector<uint64_t> out;
        gen.candidateIndices(k.valueWords(), k.careWords(), 32, out);
        EXPECT_EQ(out.size(), uint64_t{1} << (16 - std::min(len, 16u)))
            << "len=" << len;
    }
}

TEST(LowBits, TakesLowBits)
{
    LowBitsIndex gen(32, 8);
    const Key k = ipKey(0x12345678u);
    EXPECT_EQ(gen.index(k.valueWords(), 32), 0x78u);
    EXPECT_EQ(gen.rowCount(), 256u);
}

TEST(Folding, XorFoldCombinesChunks)
{
    XorFoldIndex gen(8);
    const Key k = Key::fromUint(0x12345678u, 32);
    const uint64_t expect = 0x78 ^ 0x56 ^ 0x34 ^ 0x12;
    EXPECT_EQ(gen.index(k.valueWords(), 32), expect);
}

TEST(Folding, XorFoldMultiWord)
{
    XorFoldIndex gen(16);
    Key k(128);
    k.setBitAt(127, true); // LSB bit 0
    k.setBitAt(127 - 64, true); // bit 64
    // Both bits fold onto index bit 0: they cancel.
    EXPECT_EQ(gen.index(k.valueWords(), 128), 0u);
}

TEST(Folding, AddFoldCarriesWrap)
{
    AddFoldIndex gen(8);
    const Key k = Key::fromUint(0xff01u, 16);
    EXPECT_EQ(gen.index(k.valueWords(), 16), 0x00u); // 0x01 + 0xff = 0x100
}

/** The folding hashes read one bit at a time: the definition the
 *  word-shift chunk reader must reproduce.  Reads only bits below
 *  @p key_bits. */
uint64_t
referenceFold(const uint64_t *words, unsigned key_bits, unsigned r,
              bool add)
{
    uint64_t out = 0;
    for (unsigned lo = 0; lo < key_bits; lo += r) {
        const unsigned len = std::min(r, key_bits - lo);
        uint64_t chunk = 0;
        for (unsigned i = 0; i < len; ++i) {
            const unsigned bit = lo + i;
            chunk |= ((words[bit / 64] >> (bit % 64)) & 1u) << i;
        }
        out = add ? out + chunk : out ^ chunk;
    }
    return out & ((uint64_t{1} << r) - 1);
}

TEST(Folding, ChunkStraddlingAWordAndShortLastChunk)
{
    // R = 48 on a 128-bit key: chunk 1 covers bits 48..95 across the
    // word boundary, chunk 2 is the short tail 96..127.
    const uint64_t words[2] = {0xffff000000000000ull, 0x8000000000000001ull};
    // Chunk 0 = 0; chunk 1 = bits 48..64 = 0x1ffff; chunk 2 = bit 127
    // = 1 << 31.
    EXPECT_EQ(XorFoldIndex(48).index(words, 128),
              0x1ffffull ^ (uint64_t{1} << 31));
    EXPECT_EQ(AddFoldIndex(48).index(words, 128),
              0x1ffffull + (uint64_t{1} << 31));
}

TEST(Folding, BitIdenticalToBitAtATimeReference)
{
    // Every key width 1..256 against every R in 1..63: chunks straddle
    // a word boundary wherever 64 % R != 0, and the last chunk is short
    // wherever the width is not a multiple of R.  The words carry
    // random bits past the width too, which the hash must ignore.
    Rng rng(2026);
    for (unsigned bits = 1; bits <= Key::kMaxKeyBits; ++bits) {
        for (unsigned r = 1; r <= 63; ++r) {
            const XorFoldIndex xor_fold(r);
            const AddFoldIndex add_fold(r);
            for (int rep = 0; rep < 2; ++rep) {
                uint64_t words[Key::kWords];
                for (uint64_t &w : words)
                    w = rng.next64();
                const std::span<const uint64_t> span(words, Key::kWords);
                ASSERT_EQ(xor_fold.index(span, bits),
                          referenceFold(words, bits, r, false))
                    << "xor-fold bits " << bits << " r " << r;
                ASSERT_EQ(add_fold.index(span, bits),
                          referenceFold(words, bits, r, true))
                    << "add-fold bits " << bits << " r " << r;
            }
        }
    }
}

TEST(Folding, RejectsBadWidths)
{
    EXPECT_THROW(XorFoldIndex(0), caram::FatalError);
    EXPECT_THROW(XorFoldIndex(64), caram::FatalError);
    EXPECT_THROW(AddFoldIndex(0), caram::FatalError);
}

TEST(Djb, MatchesReferenceRecurrence)
{
    // hash(i) = hash(i-1)*33 + str[i], seed 5381.
    const std::string s = "abc";
    uint64_t ref = 5381;
    for (char c : s)
        ref = ref * 33 + static_cast<unsigned char>(c);
    EXPECT_EQ(DjbIndex::raw(
                  reinterpret_cast<const unsigned char *>(s.data()), 3),
              ref);
}

TEST(Djb, KeyIndexSkipsPadding)
{
    // Fixed-width string keys are zero padded; the index must equal the
    // hash of the unpadded string.
    DjbIndex gen(14);
    const std::string s = "hello world x";
    const Key k = Key::fromString(s, 128);
    const uint64_t expect =
        DjbIndex::raw(reinterpret_cast<const unsigned char *>(s.data()),
                      s.size()) &
        ((1u << 14) - 1);
    EXPECT_EQ(gen.index(k.valueWords(), 128), expect);
}

TEST(Djb, WithBucketsNonPowerOfTwo)
{
    const auto gen = DjbIndex::withBuckets(80);
    EXPECT_EQ(gen.rowCount(), 80u);
    EXPECT_EQ(gen.indexBits(), 7u); // ceil(log2(80))
    caram::Rng rng(22);
    std::vector<int> loads(80, 0);
    for (int i = 0; i < 8000; ++i) {
        std::string s = "k";
        for (int c = 0; c < 10; ++c)
            s.push_back(static_cast<char>('a' + rng.below(26)));
        const Key k = Key::fromString(s, 128);
        const uint64_t idx = gen.index(k.valueWords(), 128);
        ASSERT_LT(idx, 80u);
        ++loads[idx];
    }
    for (int l : loads) {
        EXPECT_GT(l, 30);
        EXPECT_LT(l, 200);
    }
}

TEST(Djb, DistributesUniformly)
{
    DjbIndex gen(10); // 1024 buckets
    std::vector<int> loads(1024, 0);
    caram::Rng rng(21);
    const int n = 102400;
    for (int i = 0; i < n; ++i) {
        std::string s = "w";
        for (int c = 0; c < 12; ++c)
            s.push_back(static_cast<char>('a' + rng.below(26)));
        const Key k = Key::fromString(s, 128);
        ++loads[gen.index(k.valueWords(), 128)];
    }
    // Mean 100 per bucket; chi-square-ish sanity: no bucket wildly off.
    for (int l : loads) {
        EXPECT_GT(l, 40);
        EXPECT_LT(l, 200);
    }
}

TEST(Optimizer, PrefersDiscriminatingBits)
{
    // Keys differ only in window positions 12..15; the optimizer must
    // pick from those, not the constant high bits.
    std::vector<WindowKey> keys;
    for (uint32_t v = 0; v < 16; ++v)
        keys.push_back(WindowKey{0xab00u | v, 0xffffu});
    BitSelectionOptimizer opt(16);
    const auto positions = opt.choose(keys, 4);
    ASSERT_EQ(positions.size(), 4u);
    for (unsigned p : positions) {
        EXPECT_GE(p, 12u);
        EXPECT_LT(p, 16u);
    }
    const auto q = opt.evaluate(keys, positions);
    EXPECT_EQ(q.maxLoad, 1u);
    EXPECT_EQ(q.duplicates, 0u);
}

TEST(Optimizer, CountsDuplicatesForWildcards)
{
    std::vector<WindowKey> keys = {
        {0xff00u, 0xff00u}, // low byte wildcard
    };
    BitSelectionOptimizer opt(16);
    // Evaluate the low 8 positions: 2^8 duplicates - 1 extra copies.
    std::vector<unsigned> low{8, 9, 10, 11, 12, 13, 14, 15};
    const auto q = opt.evaluate(keys, low);
    EXPECT_EQ(q.duplicates, 255u);
    EXPECT_EQ(q.maxLoad, 1u);
}

TEST(Optimizer, NeverWorseThanNaiveLowBits)
{
    // Property from DESIGN.md: the optimizer never produces a worse
    // max bucket load than naive low-bit selection.
    caram::Rng rng(31);
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<WindowKey> keys;
        for (int i = 0; i < 2000; ++i) {
            // Clustered: high byte from a few hot values.
            const uint32_t hi = static_cast<uint32_t>(rng.below(4)) << 12;
            const uint32_t lo = static_cast<uint32_t>(rng.below(4096));
            keys.push_back(WindowKey{hi | lo, 0xffffu});
        }
        BitSelectionOptimizer opt(16);
        const unsigned r = 6;
        const auto chosen = opt.choose(keys, r);
        std::vector<unsigned> naive;
        for (unsigned p = 16 - r; p < 16; ++p)
            naive.push_back(p);
        EXPECT_LE(opt.evaluate(keys, chosen).maxLoad,
                  opt.evaluate(keys, naive).maxLoad);
    }
}

TEST(Optimizer, RejectsBadArguments)
{
    BitSelectionOptimizer opt(16);
    std::vector<WindowKey> keys = {{0, 0xffffu}};
    EXPECT_THROW(opt.choose(keys, 0), caram::FatalError);
    EXPECT_THROW(opt.choose(keys, 17), caram::FatalError);
    EXPECT_THROW(BitSelectionOptimizer(0), caram::FatalError);
    EXPECT_THROW(BitSelectionOptimizer(33), caram::FatalError);
}

TEST(IndexGenerator, FoldingHashRejectsTernaryKeys)
{
    // Folding hashes cannot duplicate wildcard keys; they must refuse
    // rather than silently mis-place them.
    XorFoldIndex gen(8);
    const Key ternary = Key::prefix(0xab000000u, 8, 32);
    std::vector<uint64_t> out;
    EXPECT_THROW(gen.candidateIndices(ternary.valueWords(),
                                      ternary.careWords(), 32, out),
                 caram::FatalError);
    // Fully specified keys pass through.
    const Key full = Key::fromUint(0xab000000u, 32);
    gen.candidateIndices(full.valueWords(), full.careWords(), 32, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], gen.index(full.valueWords(), 32));
}

TEST(IndexGenerator, RowCount)
{
    LowBitsIndex gen(32, 12);
    EXPECT_EQ(gen.rowCount(), 4096u);
}

TEST(IndexGenerator, NamesAreInformative)
{
    EXPECT_NE(BitSelectIndex(32, {5, 6}).name().find("5,6"),
              std::string::npos);
    EXPECT_NE(DjbIndex(14).name().find("16384"), std::string::npos);
    EXPECT_NE(XorFoldIndex(8).name().find("8"), std::string::npos);
}

} // namespace
} // namespace caram::hash
