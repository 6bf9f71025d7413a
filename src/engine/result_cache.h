#ifndef CARAM_ENGINE_RESULT_CACHE_H_
#define CARAM_ENGINE_RESULT_CACHE_H_

/**
 * @file
 * A fixed-size, set-associative, lock-free hot-key result cache.
 *
 * Zipf-skewed traffic (the IP/BGP generators, any millions-of-users
 * front end) re-asks the same handful of keys over and over; every
 * repeat walks the same probe chain and fetches the same rows.  The
 * ResultCache short-circuits those lookups before they touch a slice:
 * a hit replays the exact response-visible fields of the original
 * search (hit/miss verdict, matched key, stored data, bucketsAccessed)
 * without a single modeled bucket access.
 *
 * Coherence is generation-based, at two granularities.  Each port owns
 * one whole-port generation counter plus kRegions per-region counters
 * (a region is a power-of-two run of slice rows; the engine maps rows
 * to regions, the cache just treats the 64-bit region mask as opaque).
 * A fill is stamped with the *sum* of the port counter and the region
 * counters its lookup's candidate home rows cover (captureStamp(),
 * taken before the slice search ran), and records the covering mask.
 * A probe recomputes that sum over the entry's stored mask and serves
 * the entry only when it still equals the stamp: because every counter
 * is monotonically non-decreasing, equality holds iff no covered
 * counter was bumped since the capture.  A mutation bumps only the
 * region counters of the rows it actually dirtied
 * (invalidateRegions()), so churn on cold rows no longer evicts hot
 * keys that live elsewhere; invalidate() bumps the whole-port counter
 * and remains the conservative fallback (rebuilds, bulk loads,
 * overflow-area tables, and every pre-region caller).  An entry whose
 * mask is 0 is stamped with the port counter alone -- bit-identical to
 * the original whole-port protocol (see DESIGN.md §4d).
 *
 * Entries are protected by per-entry seqlocks: a writer claims the entry
 * with a CAS from an even sequence (fill is best-effort -- a lost race
 * skips the fill rather than waiting), publishes the payload words with
 * relaxed std::atomic_ref stores between a release fence and a release
 * sequence store, and a reader validates the sequence before and after
 * its relaxed word copy with an acquire fence in between.  A torn or
 * in-flight entry reads as a miss; probe and fill never block, spin or
 * allocate, so the cache is safe (and wait-free on the read side)
 * under fully concurrent use from any number of threads.
 *
 * Sets are partitioned per port: a port's entries live in their own
 * region of the array, so one port's fills can never evict another
 * port's hot keys.  This keeps the engine's modeled accounting
 * deterministic -- port p's hits depend only on port p's own serialized
 * request sequence, never on cross-port thread scheduling -- while the
 * seqlock machinery still guards the general multi-threaded API (and
 * the TSan hammer in tests/core/result_cache_differential.cc drives it
 * without any external serialization).
 */

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/key.h"
#include "core/record.h"

namespace caram::engine {

/** Lock-free set-associative cache of search results, keyed on the
 *  full ternary search key (value, care mask, width) plus port. */
class ResultCache
{
  public:
    /** Most ways a set can have (entry layout / clamp bound). */
    static constexpr unsigned kMaxWays = 16;

    /** Per-port region counters: one bit of a region mask per counter.
     *  The engine maps slice rows onto regions with a right shift, so
     *  region r covers rows [r << shift, (r + 1) << shift). */
    static constexpr unsigned kRegions = 64;

    /**
     * @param entries total entry budget across all ports (rounded so
     *                each port owns a power-of-two number of sets;
     *                at least one set per port survives any budget)
     * @param ways    set associativity, clamped to [1, kMaxWays]
     * @param nports  number of ports sharing the cache
     */
    ResultCache(std::size_t entries, unsigned ways, unsigned nports);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Look @p key up in @p port's partition.  On a hit whose
     * generation stamp is still current, fills the response-visible
     * fields of @p out (hit, data, key, bucketsAccessed; row/slot/
     * multipleMatch are not cached and come back zeroed) and returns
     * true.  A stale, torn or absent entry returns false -- the caller
     * falls through to the normal slice search.  Wait-free, never
     * allocates.
     */
    bool probe(unsigned port, const Key &key, core::SearchResult &out);

    /**
     * The port's current whole-port generation (captureStamp() with an
     * empty region mask).  Capture it *before* running the slice
     * search whose result will be filled: a mutation that slips
     * between the capture and the fill bumps the counter, so the stale
     * fill can never be served.
     */
    uint64_t generation(unsigned port) const;

    /**
     * The port's current stamp for a lookup whose candidate home rows
     * cover @p regionMask: the whole-port generation plus the sum of
     * every covered region counter.  Capture before the slice search
     * runs; pass the same mask to fill().  Monotonic counters make the
     * recomputed sum on probe equal the stamp iff no covered counter
     * was bumped in between.
     */
    uint64_t captureStamp(unsigned port, uint64_t regionMask) const;

    /**
     * Install @p result for @p key, stamped with @p stamp (from
     * captureStamp(port, regionMask), read before the search ran) and
     * covered by @p regionMask.  Best-effort: a concurrent fill of the
     * same entry makes this one a silent no-op.  Never blocks or
     * allocates.
     */
    void fill(unsigned port, const Key &key,
              const core::SearchResult &result, uint64_t stamp,
              uint64_t regionMask);

    /** Whole-port-protocol fill: stamp from generation(), mask 0. */
    void fill(unsigned port, const Key &key,
              const core::SearchResult &result, uint64_t gen)
    {
        fill(port, key, result, gen, 0);
    }

    /** Bump @p port's whole-port generation: every entry filled before
     *  this call becomes unservable, whatever its mask.  Call before
     *  (or after, if the port's requests are externally serialized)
     *  mutating the port's table. */
    void invalidate(unsigned port);

    /**
     * Bump only the region counters set in @p regionMask: entries
     * whose stored mask intersects it become unservable, the rest keep
     * hitting.  A mask of ~0 degrades to invalidate(); a mask of 0 is
     * a no-op (the mutation dirtied no rows, so nothing cached can be
     * stale).
     */
    void invalidateRegions(unsigned port, uint64_t regionMask);

    std::size_t entryCount() const { return setsPerPort_ * ways_ * nports_; }
    unsigned wayCount() const { return ways_; }
    std::size_t setsPerPort() const { return setsPerPort_; }

    /** Invalidations that bumped a whole port's generation -- explicit
     *  invalidate() calls plus invalidateRegions(~0) degradations.
     *  The overflow-area regression test pins this at zero under
     *  row-local churn: before overflow writes were folded into the
     *  main slice's regions (Database::noteOverflowMutation), every
     *  mutation on an overflow-area table degraded here. */
    uint64_t
    wholePortInvalidations() const
    {
        return wholePortInvalidations_.load(std::memory_order_relaxed);
    }

    /** Invalidations that bumped region counters only (the precise
     *  path). */
    uint64_t
    regionInvalidations() const
    {
        return regionInvalidations_.load(std::memory_order_relaxed);
    }

  private:
    /** Payload words per entry (see layout constants in the .cc). */
    static constexpr unsigned kPayloadWords = 22;

    struct Entry
    {
        /** Seqlock: even = stable, odd = fill in flight. */
        std::atomic<uint64_t> seq{0};
        /** Payload, accessed only through relaxed std::atomic_ref. */
        uint64_t words[kPayloadWords] = {};
    };

    /** Per-port generation counter, padded to its own cache line so
     *  one port's invalidation storm never false-shares another's. */
    struct alignas(64) PortGeneration
    {
        std::atomic<uint64_t> value{0};
    };

    /** Per-port block of region counters, cache-line aligned so one
     *  port's region bumps never false-share another port's block. */
    struct alignas(64) RegionGenerations
    {
        std::atomic<uint64_t> value[kRegions] = {};
    };

    /** First entry of the set @p key maps to within @p port's region. */
    Entry *setFor(unsigned port, const Key &key);

    std::size_t setsPerPort_ = 1;
    unsigned ways_ = 1;
    unsigned nports_ = 1;
    std::unique_ptr<Entry[]> entries_;
    std::unique_ptr<PortGeneration[]> generations_;
    std::unique_ptr<RegionGenerations[]> regionGens_;
    /** Per-set round-robin victim cursors (relaxed; only steer
     *  replacement, never correctness). */
    std::unique_ptr<std::atomic<uint32_t>[]> cursors_;
    /** Observability: how often invalidation fell back to a whole-port
     *  bump vs the precise region path. */
    std::atomic<uint64_t> wholePortInvalidations_{0};
    std::atomic<uint64_t> regionInvalidations_{0};
};

} // namespace caram::engine

#endif // CARAM_ENGINE_RESULT_CACHE_H_
