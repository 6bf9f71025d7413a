#include "common/key.h"

#include <bit>
#include <cassert>

#include "common/bitops.h"
#include "common/logging.h"

namespace caram {

namespace {

/** Words needed for @p bits bits. */
unsigned
wordsFor(unsigned bits)
{
    return static_cast<unsigned>(ceilDiv(bits, 64));
}

} // namespace

Key::Key(unsigned bits) : width(bits)
{
    if (bits > kMaxKeyBits)
        fatal("key width exceeds kMaxKeyBits");
    // Fully specified by default.
    for (unsigned w = 0; w * 64 < width; ++w) {
        const unsigned remaining = width - w * 64;
        care[w] = remaining >= 64 ? ~uint64_t{0} : maskBits(remaining);
    }
}

void
Key::normalize()
{
    // Zero value bits that are don't care or beyond the width so that
    // operator== and hashing are canonical.
    for (unsigned w = 0; w < kWords; ++w)
        value[w] &= care[w];
    const unsigned last = width == 0 ? 0 : (width - 1) / 64;
    for (unsigned w = last + 1; w < kWords; ++w) {
        value[w] = 0;
        care[w] = 0;
    }
    if (width % 64 != 0 && width != 0) {
        const uint64_t m = maskBits(width % 64);
        value[last] &= m;
        care[last] &= m;
    }
}

Key
Key::fromUint(uint64_t v, unsigned bits)
{
    if (bits == 0 || bits > 64)
        fatal("fromUint requires 1..64 bits");
    Key k(bits);
    k.value[0] = v;
    k.normalize();
    return k;
}

Key
Key::ternary(uint64_t v, uint64_t care_mask, unsigned bits)
{
    if (bits == 0 || bits > 64)
        fatal("ternary requires 1..64 bits");
    Key k(bits);
    k.value[0] = v;
    k.care[0] = care_mask;
    k.normalize();
    return k;
}

Key
Key::fromWords(std::span<const uint64_t> value_words,
               std::span<const uint64_t> care_words, unsigned bits)
{
    if (bits > kMaxKeyBits)
        fatal("key width exceeds kMaxKeyBits");
    Key k(bits);
    const unsigned used = wordsFor(bits);
    for (unsigned w = 0; w < used; ++w) {
        if (w < value_words.size())
            k.value[w] = value_words[w];
        if (w < care_words.size())
            k.care[w] = care_words[w];
        else
            k.care[w] = 0;
    }
    k.normalize();
    return k;
}

Key
Key::fromBytes(std::span<const unsigned char> bytes, unsigned bits)
{
    if (bits == 0 || bits > kMaxKeyBits || bits % 8 != 0)
        fatal("fromBytes requires a byte-multiple width");
    if (bytes.size() * 8 > bits)
        fatal("byte string longer than key width");
    Key k(bits);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        const unsigned lo = static_cast<unsigned>(i) * 8;
        k.value[lo / 64] |= static_cast<uint64_t>(bytes[i]) << (lo % 64);
    }
    k.normalize();
    return k;
}

Key
Key::fromString(const std::string &s, unsigned bits)
{
    return fromBytes({reinterpret_cast<const unsigned char *>(s.data()),
                      s.size()},
                     bits);
}

Key
Key::prefix(uint64_t v, unsigned prefix_len, unsigned bits)
{
    if (bits == 0 || bits > 64 || prefix_len > bits)
        fatal("invalid prefix specification");
    const uint64_t care_mask =
        prefix_len == 0 ? 0 : maskBits(prefix_len) << (bits - prefix_len);
    return ternary(v, care_mask, bits);
}

Key
Key::prefixFromBytes(std::span<const unsigned char> bytes,
                     unsigned prefix_len, unsigned bits)
{
    if (bits == 0 || bits > kMaxKeyBits || bits % 8 != 0)
        fatal("prefixFromBytes requires a byte-multiple width");
    if (bytes.size() * 8 != bits)
        fatal("prefixFromBytes needs exactly bits/8 bytes");
    if (prefix_len > bits)
        fatal("prefix length exceeds the key width");
    Key k(bits);
    // Bytes are big-endian on the wire: byte 0 holds MSB positions
    // 0..7.  Clear everything, then set the specified positions.
    for (unsigned w = 0; w < kWords; ++w)
        k.care[w] = 0;
    for (unsigned p = 0; p < prefix_len; ++p) {
        const bool bit = (bytes[p / 8] >> (7 - p % 8)) & 1u;
        k.setBitAt(p, bit, true);
    }
    k.normalize();
    return k;
}

std::span<const uint64_t>
Key::valueWords() const
{
    return {value.data(), wordsFor(width == 0 ? 1 : width)};
}

std::span<const uint64_t>
Key::careWords() const
{
    return {care.data(), wordsFor(width == 0 ? 1 : width)};
}

bool
Key::valueBitAt(unsigned p) const
{
    assert(p < width);
    const unsigned j = width - 1 - p;
    return (value[j / 64] >> (j % 64)) & 1u;
}

bool
Key::careBitAt(unsigned p) const
{
    assert(p < width);
    const unsigned j = width - 1 - p;
    return (care[j / 64] >> (j % 64)) & 1u;
}

void
Key::setBitAt(unsigned p, bool value_bit, bool care_bit)
{
    assert(p < width);
    const unsigned j = width - 1 - p;
    const uint64_t m = uint64_t{1} << (j % 64);
    if (care_bit)
        care[j / 64] |= m;
    else
        care[j / 64] &= ~m;
    if (value_bit && care_bit)
        value[j / 64] |= m;
    else
        value[j / 64] &= ~m;
}

bool
Key::fullySpecified() const
{
    // Care bits beyond the width are always zero (normalize()), so the
    // key is fully specified exactly when every word the width covers
    // holds its all-ones mask.
    const unsigned full = width / 64;
    for (unsigned w = 0; w < full; ++w) {
        if (care[w] != ~uint64_t{0})
            return false;
    }
    return width % 64 == 0 || care[full] == maskBits(width % 64);
}

unsigned
Key::carePopcount() const
{
    // Only the words the width covers can hold care bits.
    unsigned n = 0;
    for (unsigned w = 0; w * 64 < width; ++w)
        n += static_cast<unsigned>(std::popcount(care[w]));
    return n;
}

bool
Key::matches(const Key &search) const
{
    if (search.width != width)
        return false;
    for (unsigned w = 0; w < kWords; ++w) {
        // Positions where both sides care and values differ.
        const uint64_t both_care = care[w] & search.care[w];
        if ((value[w] ^ search.value[w]) & both_care)
            return false;
    }
    return true;
}

bool
Key::operator==(const Key &other) const
{
    return width == other.width && value == other.value &&
           care == other.care;
}

std::string
Key::toString() const
{
    std::string out;
    out.reserve(width);
    for (unsigned p = 0; p < width; ++p) {
        if (!careBitAt(p))
            out.push_back('X');
        else
            out.push_back(valueBitAt(p) ? '1' : '0');
    }
    return out;
}

std::size_t
Key::Hasher::operator()(const Key &k) const
{
    uint64_t h = 0x9e3779b97f4a7c15ull ^ k.bits();
    auto mix = [&h](uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    for (unsigned w = 0; w < kWords; ++w) {
        mix(k.value[w]);
        mix(k.care[w]);
    }
    return static_cast<std::size_t>(h);
}

} // namespace caram
