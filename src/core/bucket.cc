#include "core/bucket.h"

#include <algorithm>
#include <cassert>

#include "common/bitops.h"
#include "common/logging.h"

namespace caram::core {

BucketView::BucketView(mem::MemoryArray &array, const SliceConfig &config,
                       uint64_t row)
    : array_(&array), cfg(&config), rowIndex(row)
{
    assert(row < config.rows());
}

uint64_t
BucketView::slotBase(unsigned i) const
{
    assert(i < cfg->slotsPerBucket);
    return static_cast<uint64_t>(i) * cfg->slotBits();
}

uint64_t
BucketView::auxBase() const
{
    return static_cast<uint64_t>(cfg->slotsPerBucket) * cfg->slotBits();
}

bool
BucketView::slotValid(unsigned i) const
{
    const uint64_t valid_bit =
        slotBase(i) + cfg->storedKeyBits() + cfg->dataBits;
    return array_->readBits(rowIndex, valid_bit, 1) != 0;
}

Key
BucketView::slotKey(unsigned i) const
{
    const uint64_t base = slotBase(i);
    const unsigned kb = cfg->logicalKeyBits;
    // Read value/care bits 64 at a time.  Key words are little-endian,
    // the same convention as the row layout, so this is a straight
    // word copy -- no per-bit reassembly.
    uint64_t v[Key::kWords] = {};
    uint64_t c[Key::kWords] = {};
    for (unsigned lo = 0; lo < kb; lo += 64) {
        const unsigned len = std::min(64u, kb - lo);
        v[lo / 64] = array_->readBits(rowIndex, base + lo, len);
        c[lo / 64] = cfg->ternary
            ? array_->readBits(rowIndex, base + kb + lo, len)
            : maskBits(len);
    }
    const unsigned words = static_cast<unsigned>(ceilDiv(kb, 64));
    return Key::fromWords({v, words}, {c, words}, kb);
}

uint64_t
BucketView::slotData(unsigned i) const
{
    if (cfg->dataBits == 0)
        return 0;
    return array_->readBits(rowIndex, slotBase(i) + cfg->storedKeyBits(),
                            cfg->dataBits);
}

void
BucketView::writeSlot(unsigned i, const Key &key, uint64_t data)
{
    if (key.bits() != cfg->logicalKeyBits)
        fatal("record key width does not match the slice configuration");
    if (!cfg->ternary && !key.fullySpecified())
        fatal("ternary key stored in a binary slice");
    const uint64_t base = slotBase(i);
    const unsigned kb = cfg->logicalKeyBits;
    const auto value = key.valueWords();
    const auto care = key.careWords();
    for (unsigned lo = 0; lo < kb; lo += 64) {
        const unsigned len = std::min(64u, kb - lo);
        array_->writeBits(rowIndex, base + lo, len, value[lo / 64]);
        if (cfg->ternary)
            array_->writeBits(rowIndex, base + kb + lo, len, care[lo / 64]);
    }
    if (cfg->dataBits > 0) {
        if (cfg->dataBits < 64 && (data >> cfg->dataBits) != 0)
            fatal("record data does not fit the configured data field");
        array_->writeBits(rowIndex, base + cfg->storedKeyBits(),
                          cfg->dataBits, data);
    }
    array_->writeBits(rowIndex, base + cfg->storedKeyBits() + cfg->dataBits,
                      1, 1);
}

void
BucketView::clearSlot(unsigned i)
{
    array_->writeBits(rowIndex,
                      slotBase(i) + cfg->storedKeyBits() + cfg->dataBits, 1,
                      0);
}

uint64_t
BucketView::validMask(unsigned w) const
{
    const uint64_t *row = rowData();
    const uint64_t stride = cfg->slotBits();
    const unsigned first = w * 64;
    const unsigned lim = std::min(cfg->slotsPerBucket - first, 64u);
    uint64_t bit = first * stride + cfg->storedKeyBits() + cfg->dataBits;
    uint64_t mask = 0;
    for (unsigned s = 0; s < lim; ++s, bit += stride)
        mask |= ((row[bit / 64] >> (bit % 64)) & 1) << s;
    return mask;
}

int
BucketView::firstFreeSlot() const
{
    for (unsigned i = 0; i < cfg->slotsPerBucket; ++i) {
        if (!slotValid(i))
            return static_cast<int>(i);
    }
    return -1;
}

unsigned
BucketView::usedCount() const
{
    return static_cast<unsigned>(array_->readBits(rowIndex, auxBase(), 16));
}

unsigned
BucketView::reach() const
{
    return static_cast<unsigned>(
        array_->readBits(rowIndex, auxBase() + 16, 16));
}

void
BucketView::setUsedCount(unsigned count)
{
    assert(count <= cfg->slotsPerBucket);
    array_->writeBits(rowIndex, auxBase(), 16, count);
}

void
BucketView::setReach(unsigned reach)
{
    assert(reach < (1u << 16));
    array_->writeBits(rowIndex, auxBase() + 16, 16, reach);
}

bool
BucketView::slotMatchesKey(unsigned i, const Key &search) const
{
    assert(search.bits() == cfg->logicalKeyBits);
    const uint64_t base = slotBase(i);
    const unsigned kb = cfg->logicalKeyBits;
    const auto sv = search.valueWords();
    const auto sc = search.careWords();
    for (unsigned lo = 0; lo < kb; lo += 64) {
        const unsigned len = std::min(64u, kb - lo);
        const uint64_t v = array_->readBits(rowIndex, base + lo, len);
        const uint64_t c = cfg->ternary
            ? array_->readBits(rowIndex, base + kb + lo, len)
            : maskBits(len);
        // Mismatch where both sides care and the values disagree.
        if ((v ^ sv[lo / 64]) & c & sc[lo / 64] & maskBits(len))
            return false;
    }
    return true;
}

unsigned
BucketView::recountUsed() const
{
    unsigned used = 0;
    for (unsigned i = 0; i < cfg->slotsPerBucket; ++i)
        used += slotValid(i) ? 1 : 0;
    return used;
}

} // namespace caram::core
