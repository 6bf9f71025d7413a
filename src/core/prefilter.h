#ifndef CARAM_CORE_PREFILTER_H_
#define CARAM_CORE_PREFILTER_H_

/**
 * @file
 * Per-row counting pre-filter: a compact summary of every row's
 * contents that lets the search paths skip row fetches which provably
 * cannot match -- before touching the MemoryArray, before charging a
 * modeled bucket access (DESIGN.md section 4e).
 *
 * Each row owns five 64-bit words (40 bytes, independent of the row's
 * slot count or key width):
 *
 *   words 0..3   64 four-bit *sticky saturating* counters -- a
 *                counting Bloom block over the signatures of the
 *                fully specified keys stored in the row.  Every such
 *                key raises k = 2 counters chosen by a splitmix mix of
 *                its value words; erase lowers them again (counting
 *                semantics make erase safe, unlike a plain Bloom bit
 *                array).  A counter that ever reaches 15 sticks there
 *                forever: its exact contributor count is lost, so it
 *                conservatively reads as "maybe present" until the
 *                filter is rebuilt wholesale.  The invariant that
 *                makes pruning sound: a nibble below 15 was never
 *                saturated, so it counts its live contributors
 *                exactly, and nibble == 0 implies zero contributors.
 *
 *   word 4       meta: occupancy(16) | wildcard(16) | reach(16).
 *                occupancy counts the row's valid slots; wildcard
 *                counts stored keys with don't-care bits (which the
 *                signature block deliberately ignores -- a wildcard
 *                key can match a search key whose signature differs);
 *                reach mirrors the home bucket's overflow reach so a
 *                pruned home row's chain length is known without
 *                fetching the row.
 *
 * The prune rule (mayMatch() == false allows skipping the row):
 *
 *   occupancy == 0                                  -- empty row, or
 *   search key fully specified AND wildcard == 0
 *     AND either of the key's two counters == 0     -- signature miss.
 *
 * Concurrency contract: the slice's owning thread performs every write
 * and every serial consult.  The only other readers are row fan-out
 * shards (CaRamSlice::searchRows), which walk chains on stealing
 * workers while the owner waits for them, so no write can overlap
 * them; the words stay std::atomic<uint64_t> because those shards
 * still read them from other threads.  The error is one-sided: a
 * consult can at worst demand an extra fetch of a non-matching row,
 * never skip a row holding a match (the full argument is in DESIGN.md
 * section 4e).
 *
 * suspend() covers RAM-mode stores, which rewrite raw bits behind the
 * filter's back: a suspended filter answers mayMatch() == true for
 * every row until the next wholesale rebuild (clearAll() +
 * re-population, as adoptRamContents() and clear() perform).
 */

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/key.h"

namespace caram::core {

/** The per-slice pre-filter over all rows.  See the file comment. */
class RowPrefilter
{
  public:
    /** Atomic words per row: 4 counter words + 1 meta word. */
    static constexpr unsigned kWordsPerRow = 5;
    /** 4-bit counters per row (two raised per stored key). */
    static constexpr unsigned kCounters = 64;
    /** Sticky saturation ceiling of one counter. */
    static constexpr uint64_t kCounterMax = 15;

    RowPrefilter() = default;

    /** Size the filter for @p rows, all-zero (an empty table). */
    void reset(uint64_t rows);

    /**
     * Signature of a key's value bits -- identical for a stored key
     * and the fully specified search key that equals it, which is the
     * only case the counter block is consulted in.
     */
    static uint64_t signatureOf(const Key &key);

    /** Record a stored copy of @p key in @p row. */
    void add(uint64_t row, const Key &key);

    /** Remove a stored copy of @p key from @p row (counting
     *  semantics). */
    void remove(uint64_t row, const Key &key);

    /** Mirror the home bucket's overflow reach. */
    void setReach(uint64_t row, unsigned reach);

    /** The mirrored overflow reach of @p row's bucket. */
    unsigned
    reach(uint64_t row) const
    {
        return static_cast<unsigned>(
            (meta(row).load(std::memory_order_relaxed) >> 32) & 0xffff);
    }

    /**
     * False when @p row provably holds no match for the key behind
     * @p sig -- the caller may skip the fetch.  @p sig_usable is
     * whether the search key is fully specified (only then is the
     * signature comparison meaningful; partial search keys fall back
     * to occupancy-only pruning).  Always true while suspended.
     */
    bool
    mayMatch(uint64_t row, uint64_t sig, bool sig_usable) const
    {
        if (suspended_.load(std::memory_order_relaxed))
            return true;
        const uint64_t m = meta(row).load(std::memory_order_relaxed);
        if ((m & 0xffff) == 0)
            return false; // no valid slot anywhere in the row
        if (!sig_usable || ((m >> 16) & 0xffff) != 0)
            return true; // signatures can't speak for wildcard keys
        return counterAt(row, sig & 63) != 0 &&
               counterAt(row, (sig >> 6) & 63) != 0;
    }

    /** mayMatch() that also reports the row's mirrored reach (one meta
     *  load serves both) -- the home-row consult of a chain walk. */
    bool
    consultHome(uint64_t row, uint64_t sig, bool sig_usable,
                unsigned &reach_out) const
    {
        const uint64_t m = meta(row).load(std::memory_order_relaxed);
        reach_out = static_cast<unsigned>((m >> 32) & 0xffff);
        if (suspended_.load(std::memory_order_relaxed))
            return true;
        if ((m & 0xffff) == 0)
            return false;
        if (!sig_usable || ((m >> 16) & 0xffff) != 0)
            return true;
        return counterAt(row, sig & 63) != 0 &&
               counterAt(row, (sig >> 6) & 63) != 0;
    }

    /** Zero every word (the table was cleared or is being rebuilt
     *  wholesale) and lift a suspension. */
    void clearAll();

    /** Declare the filter stale (RAM-mode stores bypassed it): every
     *  mayMatch() answers true until clearAll() rebuilds it. */
    void
    suspend()
    {
        suspended_.store(true, std::memory_order_relaxed);
    }

    bool
    suspended() const
    {
        return suspended_.load(std::memory_order_relaxed);
    }

    /** Filter memory, bytes (the bench's overhead accounting). */
    uint64_t
    memoryBytes() const
    {
        return words_.size() * sizeof(std::atomic<uint64_t>);
    }

  private:
    std::atomic<uint64_t> &
    meta(uint64_t row)
    {
        return words_[row * kWordsPerRow + 4];
    }

    const std::atomic<uint64_t> &
    meta(uint64_t row) const
    {
        return words_[row * kWordsPerRow + 4];
    }

    uint64_t
    counterAt(uint64_t row, uint64_t c) const
    {
        const uint64_t w = words_[row * kWordsPerRow + (c >> 4)].load(
            std::memory_order_relaxed);
        return (w >> ((c & 15) * 4)) & kCounterMax;
    }

    /** Raise (+1) or lower (-1) counter @p c of @p row, sticky at
     *  saturation.  Single-writer. */
    void bump(uint64_t row, uint64_t c, bool up);

    std::vector<std::atomic<uint64_t>> words_;
    std::atomic<bool> suspended_{false};
};

} // namespace caram::core

#endif // CARAM_CORE_PREFILTER_H_
