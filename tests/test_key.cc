/** @file Unit and property tests for the ternary Key type. */

#include "common/key.h"

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"

namespace caram {
namespace {

TEST(Key, DefaultIsEmpty)
{
    Key k;
    EXPECT_EQ(k.bits(), 0u);
    EXPECT_TRUE(k.fullySpecified()); // vacuously
    EXPECT_EQ(k.carePopcount(), 0u);
}

TEST(Key, WidthConstructorFullySpecifiedZero)
{
    Key k(32);
    EXPECT_EQ(k.bits(), 32u);
    EXPECT_TRUE(k.fullySpecified());
    EXPECT_EQ(k.carePopcount(), 32u);
    EXPECT_EQ(k.low64(), 0u);
}

TEST(Key, FromUintRoundTrip)
{
    const Key k = Key::fromUint(0xdeadbeef, 32);
    EXPECT_EQ(k.low64(), 0xdeadbeefu);
    EXPECT_TRUE(k.fullySpecified());
    // MSB position 0 of 0xdeadbeef (1101...) is 1.
    EXPECT_TRUE(k.valueBitAt(0));
    EXPECT_TRUE(k.valueBitAt(1));
    EXPECT_FALSE(k.valueBitAt(2));
    EXPECT_TRUE(k.valueBitAt(3));
}

TEST(Key, FromUintMasksExcessBits)
{
    const Key k = Key::fromUint(0xff, 4);
    EXPECT_EQ(k.low64(), 0xfu);
}

TEST(Key, TernaryNormalizesDontCareValueBits)
{
    const Key k = Key::ternary(0xff, 0x0f, 8);
    EXPECT_EQ(k.low64(), 0x0fu);
    EXPECT_EQ(k.carePopcount(), 4u);
    EXPECT_FALSE(k.fullySpecified());
}

TEST(Key, PrefixConstruction)
{
    // 10.0.0.0/8
    const Key k = Key::prefix(0x0a000000, 8, 32);
    EXPECT_EQ(k.carePopcount(), 8u);
    for (unsigned p = 0; p < 8; ++p)
        EXPECT_TRUE(k.careBitAt(p)) << p;
    for (unsigned p = 8; p < 32; ++p)
        EXPECT_FALSE(k.careBitAt(p)) << p;
    EXPECT_TRUE(k.valueBitAt(4));  // 0x0a = 00001010
    EXPECT_FALSE(k.valueBitAt(0));
}

TEST(Key, ZeroLengthPrefixMatchesEverything)
{
    const Key def = Key::prefix(0, 0, 32);
    for (uint32_t addr : {0u, 0xffffffffu, 0x12345678u})
        EXPECT_TRUE(def.matches(Key::fromUint(addr, 32)));
}

TEST(Key, FromBytesLayout)
{
    const unsigned char bytes[] = {'a', 'b'};
    const Key k = Key::fromBytes(bytes, 32);
    // Byte 0 occupies bits [0, 8): low byte of word 0.
    EXPECT_EQ(k.low64() & 0xff, static_cast<uint64_t>('a'));
    EXPECT_EQ((k.low64() >> 8) & 0xff, static_cast<uint64_t>('b'));
    // Padding bytes are zero.
    EXPECT_EQ(k.low64() >> 16, 0u);
}

TEST(Key, FromStringEqualsFromBytes)
{
    const std::string s = "hello world";
    const Key a = Key::fromString(s, 128);
    const Key b = Key::fromBytes(
        {reinterpret_cast<const unsigned char *>(s.data()), s.size()},
        128);
    EXPECT_EQ(a, b);
}

TEST(Key, DistinctStringsDistinctKeys)
{
    EXPECT_NE(Key::fromString("abc def gh", 128),
              Key::fromString("abc def gi", 128));
    EXPECT_NE(Key::fromString("ab", 128), Key::fromString("ab ", 128));
}

TEST(Key, SetBitAt)
{
    Key k(8);
    k.setBitAt(0, true);
    EXPECT_EQ(k.low64(), 0x80u);
    k.setBitAt(7, true);
    EXPECT_EQ(k.low64(), 0x81u);
    k.setBitAt(0, false);
    EXPECT_EQ(k.low64(), 0x01u);
    k.setBitAt(3, true, false); // don't care: value forced to 0
    EXPECT_FALSE(k.careBitAt(3));
    EXPECT_FALSE(k.valueBitAt(3));
}

TEST(Key, MatchesExact)
{
    const Key a = Key::fromUint(0x1234, 16);
    EXPECT_TRUE(a.matches(Key::fromUint(0x1234, 16)));
    EXPECT_FALSE(a.matches(Key::fromUint(0x1235, 16)));
}

TEST(Key, MatchesRequiresSameWidth)
{
    EXPECT_FALSE(Key::fromUint(1, 8).matches(Key::fromUint(1, 16)));
}

TEST(Key, StoredKeyDontCareMatches)
{
    // Stored "110XX" matches 11000, 11001, 11010, 11011 (paper 2.2).
    const Key stored = Key::ternary(0b11000, 0b11100, 5);
    for (uint64_t low : {0b000u, 0b001u, 0b010u, 0b011u})
        EXPECT_TRUE(stored.matches(Key::fromUint(0b11000 | low, 5)));
    EXPECT_FALSE(stored.matches(Key::fromUint(0b10000, 5)));
    EXPECT_FALSE(stored.matches(Key::fromUint(0b01000, 5)));
}

TEST(Key, SearchKeyDontCareMatches)
{
    // Search-key masking (the paper's Mi input).
    const Key stored = Key::fromUint(0b10110, 5);
    const Key search = Key::ternary(0b10000, 0b11000, 5);
    EXPECT_TRUE(stored.matches(search));
    const Key search2 = Key::ternary(0b01000, 0b11000, 5);
    EXPECT_FALSE(stored.matches(search2));
}

TEST(Key, MultiWordKeys)
{
    Key k(200);
    k.setBitAt(0, true);
    k.setBitAt(199, true);
    k.setBitAt(100, true);
    EXPECT_EQ(k.carePopcount(), 200u);
    EXPECT_TRUE(k.valueBitAt(0));
    EXPECT_TRUE(k.valueBitAt(100));
    EXPECT_TRUE(k.valueBitAt(199));
    EXPECT_FALSE(k.valueBitAt(50));
    EXPECT_TRUE(k.matches(k));
}

TEST(Key, EqualityIncludesCareMask)
{
    const Key a = Key::ternary(0b1010, 0b1111, 4);
    const Key b = Key::ternary(0b1010, 0b1110, 4);
    EXPECT_NE(a, b);
    EXPECT_TRUE(a.matches(b)); // but they do ternary-match
}

TEST(Key, ToStringRendersX)
{
    const Key k = Key::ternary(0b10, 0b10, 2);
    EXPECT_EQ(k.toString(), "1X");
    EXPECT_EQ(Key::fromUint(0b01, 2).toString(), "01");
}

TEST(Key, HasherDistinguishes)
{
    Key::Hasher h;
    EXPECT_NE(h(Key::fromUint(1, 32)), h(Key::fromUint(2, 32)));
    // Same value, different care: distinct hashes (canonical form).
    EXPECT_NE(h(Key::ternary(0, 0xff, 8)), h(Key::ternary(0, 0x7f, 8)));
}

TEST(Key, WidthLimitEnforced)
{
    EXPECT_THROW(Key(300), FatalError);
    EXPECT_THROW(Key::fromUint(0, 0), FatalError);
    EXPECT_THROW(Key::fromUint(0, 65), FatalError);
    EXPECT_THROW(Key::fromBytes({}, 12), FatalError); // not byte multiple
}

TEST(Key, PrefixFromBytesWideKeys)
{
    // 2001:0db8::/32 as raw bytes.
    unsigned char bytes[16] = {0x20, 0x01, 0x0d, 0xb8};
    const Key k = Key::prefixFromBytes(bytes, 32, 128);
    EXPECT_EQ(k.bits(), 128u);
    EXPECT_EQ(k.carePopcount(), 32u);
    EXPECT_FALSE(k.valueBitAt(0));
    EXPECT_FALSE(k.valueBitAt(1));
    EXPECT_TRUE(k.valueBitAt(2));  // 0x2...
    EXPECT_TRUE(k.valueBitAt(15)); // ...1
    // Matches any key sharing the first 32 bits.
    Key addr(128);
    for (unsigned p = 0; p < 32; ++p)
        addr.setBitAt(p, k.valueBitAt(p));
    addr.setBitAt(100, true);
    EXPECT_TRUE(k.matches(addr));
    addr.setBitAt(2, false);
    EXPECT_FALSE(k.matches(addr));
}

TEST(Key, PrefixFromBytesCrossesWordBoundary)
{
    unsigned char bytes[16] = {};
    bytes[8] = 0x80; // bit position 64 set
    const Key k = Key::prefixFromBytes(bytes, 65, 128);
    EXPECT_EQ(k.carePopcount(), 65u);
    EXPECT_TRUE(k.valueBitAt(64));
    EXPECT_FALSE(k.careBitAt(65));
}

TEST(Key, PrefixFromBytesRejectsBadArguments)
{
    unsigned char bytes[16] = {};
    EXPECT_THROW(Key::prefixFromBytes({bytes, 15}, 8, 128),
                 FatalError); // wrong byte count
    EXPECT_THROW(Key::prefixFromBytes({bytes, 16}, 129, 128),
                 FatalError); // prefix too long
    EXPECT_THROW(Key::prefixFromBytes({bytes, 16}, 8, 130),
                 FatalError); // not byte multiple
}

/** Property: matching is symmetric in the don't-care extension. */
TEST(KeyProperty, MatchSymmetry)
{
    Rng rng(11);
    for (int iter = 0; iter < 2000; ++iter) {
        const unsigned bits = 1 + rng.below(64);
        const Key a = Key::ternary(rng.next64(), rng.next64(), bits);
        const Key b = Key::ternary(rng.next64(), rng.next64(), bits);
        EXPECT_EQ(a.matches(b), b.matches(a));
    }
}

/** Property: a key always matches itself and any widening of its mask. */
TEST(KeyProperty, SelfMatch)
{
    Rng rng(12);
    for (int iter = 0; iter < 2000; ++iter) {
        const unsigned bits = 1 + rng.below(64);
        const uint64_t value = rng.next64();
        const uint64_t care = rng.next64();
        const Key k = Key::ternary(value, care, bits);
        EXPECT_TRUE(k.matches(k));
        // Clearing more care bits can only preserve matching.
        const Key wider = Key::ternary(value, care & rng.next64(), bits);
        EXPECT_TRUE(wider.matches(k));
    }
}

/** Property: matches() agrees with a per-bit reference implementation. */
TEST(KeyProperty, MatchAgainstBitwiseReference)
{
    Rng rng(13);
    for (int iter = 0; iter < 2000; ++iter) {
        const unsigned bits = 1 + rng.below(32);
        const Key a = Key::ternary(rng.next64(), rng.next64(), bits);
        const Key b = Key::ternary(rng.next64(), rng.next64(), bits);
        bool ref = true;
        for (unsigned p = 0; p < bits; ++p) {
            if (a.careBitAt(p) && b.careBitAt(p) &&
                a.valueBitAt(p) != b.valueBitAt(p)) {
                ref = false;
                break;
            }
        }
        EXPECT_EQ(a.matches(b), ref);
    }
}

/** Property: fullySpecified() and carePopcount() agree with a per-bit
 *  count at every width 0..256, on random care masks. */
TEST(KeyProperty, CareCountsAgainstPerBitReference)
{
    Rng rng(14);
    for (unsigned bits = 0; bits <= Key::kMaxKeyBits; ++bits) {
        for (int iter = 0; iter < 24; ++iter) {
            uint64_t value[Key::kWords];
            uint64_t care[Key::kWords];
            for (unsigned w = 0; w < Key::kWords; ++w) {
                value[w] = rng.next64();
                // All ones (bits past the width are normalized away),
                // all ones but one bit, or random.
                care[w] = iter % 3 == 2 ? rng.next64() : ~uint64_t{0};
            }
            if (iter % 3 == 1 && bits > 0) {
                const unsigned j = static_cast<unsigned>(rng.below(bits));
                care[j / 64] &= ~(uint64_t{1} << (j % 64));
            }
            const Key k = Key::fromWords(value, care, bits);
            unsigned ref = 0;
            for (unsigned p = 0; p < bits; ++p)
                ref += k.careBitAt(p) ? 1 : 0;
            ASSERT_EQ(k.carePopcount(), ref) << "bits " << bits;
            ASSERT_EQ(k.fullySpecified(), ref == bits) << "bits " << bits;
        }
    }
}

} // namespace
} // namespace caram
