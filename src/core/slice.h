#ifndef CARAM_CORE_SLICE_H_
#define CARAM_CORE_SLICE_H_

/**
 * @file
 * A CA-RAM slice (paper Figure 3): index generator + dense memory array
 * + match processors, with CAM-mode search/insert/delete, RAM-mode
 * load/store, overflow probing driven by the per-row auxiliary field,
 * and placement statistics.
 *
 * A "slice" here is a *logical* slice: multi-slice horizontal/vertical
 * arrangements (section 3.2) are expressed as one logical slice with the
 * effective R and S (see SliceConfig::arranged), while the physical
 * composition is carried separately for the cost and timing models.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/bucket.h"
#include "core/config.h"
#include "core/load_stats.h"
#include "core/match_processor.h"
#include "core/record.h"
#include "hash/index_generator.h"
#include "mem/memory_array.h"

namespace caram::core {

/** Aggregate outcome of inserting a (possibly duplicated) record. */
struct InsertSummary
{
    bool ok = false;          ///< every required copy was placed
    unsigned copies = 0;      ///< buckets the record was duplicated into
    unsigned maxDistance = 0; ///< worst probe distance among copies
    std::vector<InsertResult> placements;
};

/** Per-record outcome of a bulk insert -- what insert() would report. */
struct InsertOutcome
{
    bool ok = false;          ///< every required copy was placed
    unsigned copies = 0;      ///< copies placed (incl. overflow entries)
    unsigned maxDistance = 0; ///< worst probe distance among copies
};

/**
 * Row-granular accounting of one insertBatch() call.  The batched
 * pipeline touches each distinct row once per chunk (one fetch to
 * inspect its slots, one writeback carrying every new record and the
 * final aux fields), where record-at-a-time insertion pays the probe
 * chain's fetches plus a slot writeback and a home-row aux writeback
 * per record -- the serial* fields accumulate that reference cost for
 * the same records, so reduction() is the paper's "one row access
 * amortized over many keys" economy measured on the ingest path.
 */
struct InsertBatchSummary
{
    uint64_t accepted = 0;     ///< records fully placed
    uint64_t failed = 0;       ///< records rejected (and rolled back)
    uint64_t rowFetches = 0;   ///< distinct rows read by the batch
    uint64_t rowWritebacks = 0;///< distinct rows written by the batch
    /** Row reads the same records cost record-at-a-time. */
    uint64_t serialRowFetches = 0;
    /** Row writes the same records cost record-at-a-time. */
    uint64_t serialRowWritebacks = 0;
    uint64_t spilledPlacements = 0; ///< placements beyond the home bucket
    uint64_t multiHomeRecords = 0;  ///< ternary duplication (multi-home)
    /** Records a Database-level overflow policy handled one at a time. */
    uint64_t fallbackRecords = 0;

    /** serial row ops / batched row ops (>= 1 when batching pays). */
    double
    rowOpReduction() const
    {
        const uint64_t batched = rowFetches + rowWritebacks;
        const uint64_t serial = serialRowFetches + serialRowWritebacks;
        return batched > 0 ? static_cast<double>(serial) / batched : 0.0;
    }

    void
    merge(const InsertBatchSummary &o)
    {
        accepted += o.accepted;
        failed += o.failed;
        rowFetches += o.rowFetches;
        rowWritebacks += o.rowWritebacks;
        serialRowFetches += o.serialRowFetches;
        serialRowWritebacks += o.serialRowWritebacks;
        spilledPlacements += o.spilledPlacements;
        multiHomeRecords += o.multiHomeRecords;
        fallbackRecords += o.fallbackRecords;
    }
};

/** One CA-RAM slice. */
class CaRamSlice
{
  public:
    /**
     * @param config    validated slice configuration
     * @param index_gen index generator; its indexBits() must equal
     *                  config.indexBits
     */
    CaRamSlice(const SliceConfig &config,
               std::unique_ptr<hash::IndexGenerator> index_gen);

    const SliceConfig &config() const { return cfg; }
    const hash::IndexGenerator &indexGenerator() const { return *idxGen; }

    /** Home bucket of a key (value bits only). */
    uint64_t homeRow(const Key &key) const;

    /** All home buckets of a possibly-ternary key (duplication).
     *  Allocates a fresh vector; the internal search paths use the
     *  per-slice scratch buffer instead (homeRowsInto). */
    std::vector<uint64_t> homeRows(const Key &key) const;

    /// @name CAM-mode operations (section 3.2)
    /// @{
    /**
     * Insert a record, duplicating it into every bucket it can hash to
     * when it has don't-care bits in hash positions.  All-or-nothing: on
     * failure, already-placed copies are rolled back.
     */
    InsertSummary insert(const Record &record);

    /** Insert one copy with an explicit home bucket. */
    InsertResult insertAt(uint64_t home_row, const Record &record);

    /**
     * Undo one placement returned by insertAt()/insert() -- clears
     * exactly that slot and its bookkeeping.  Unlike erase(), this can
     * never disturb a different record with an identical key.
     */
    void removePlacement(const InsertResult &placement);

    /**
     * Look up a search key (which may itself contain don't-care bits,
     * including in hash positions -- then multiple buckets are
     * accessed).  Honors the configuration's probing policy, the home
     * buckets' overflow reach and LPM mode.
     */
    SearchResult search(const Key &search_key);

    /**
     * Remove one logical record stored under @p key: one copy per
     * candidate home, the copy a search walking that home's chain meets
     * first (a fully specified key has one home, so this is exactly the
     * copy search() answers with).  Returns the number of copies
     * removed.
     *
     * On a binary, linear-probing slice the erase also repairs its
     * hole (DESIGN.md section 4f): later records of the chains passing
     * the hole shift back into it, and the reach of every home whose
     * farthest record moved or left is trimmed to its farthest live
     * record.  Search hit/data answers are exactly what they would be
     * without the repair; only bucketsAccessed can fall.
     */
    unsigned erase(const Key &key);

    /**
     * search() variant that also reports the rows accessed, in order --
     * the timing engine uses this to route accesses to banks.
     */
    SearchResult searchTraced(const Key &search_key,
                              std::vector<uint64_t> &rows_accessed);

    /// @name Shard-scoped search (intra-lookup row fan-out)
    /// @{
    /**
     * Pack @p search_key into @p out, the match processor's step-1
     * template, using *caller-owned* scratch instead of the per-slice
     * packedKey_.  Shard workers pack once per lookup and then hand the
     * same (read-only) packed key to every shard.
     */
    void packSearchKey(const Key &search_key,
                       MatchProcessor::PackedKey &out) const;

    /**
     * Candidate home buckets of @p search_key into @p out -- the
     * caller-scratch variant of homeRows().  @p out is cleared and
     * refilled; it retains capacity across calls, so a pre-sized vector
     * makes this allocation-free.  Order matches homeRowsInto(), which
     * is the order the serial search visits homes in.
     */
    void candidateHomes(const Key &search_key,
                        std::vector<uint64_t> &out) const;

    /**
     * Search a subset of candidate home chains -- the shard entry point
     * of the intra-lookup row fan-out.  Walks @p homes[0..n) through
     * the same chain logic search() uses (probing, overflow reach, LPM
     * best-so-far, first-hit early exit in exact mode) but touches *no*
     * per-slice scratch and *no* search counters: the packed key and
     * the result are caller-owned, so concurrent searchRows() calls on
     * one slice are safe against each other (they only read the memory
     * array) as long as no mutation and no scratch-using entry point
     * (search/erase/insertBatch/...) runs concurrently.
     *
     * The returned bucketsAccessed counts only the rows this shard
     * walked.  Recombine shards with mergeShardResults() and account
     * the merged lookup with noteFanoutSearch() to stay bit-identical
     * to a serial search() over the full home set.
     */
    SearchResult searchRows(const MatchProcessor::PackedKey &packed,
                            const uint64_t *homes, unsigned n);

    /**
     * Merge per-shard bests back into what a serial search() over the
     * concatenated home ranges would have returned.  Shards must be
     * ordered: shard i covers homes strictly before shard i+1's in
     * candidateHomes() order.
     *
     * Exact (non-LPM) mode replays the serial early exit: sum the
     * accesses of leading no-hit shards, then stop at the first hitting
     * shard and take its match (later shards' speculative work is
     * discarded).  LPM mode sums every shard's accesses and keeps the
     * first shard-best with the strictly longest care popcount -- the
     * same first-max-wins rule searchChain() applies per bucket.
     */
    static SearchResult mergeShardResults(const SearchResult *shards,
                                          unsigned n, bool lpm);

    /**
     * Account one fan-out lookup: advances searchesPerformed() by one
     * and searchAccesses() by @p buckets_accessed, exactly as a serial
     * search() reporting that many accesses would.  Call from the
     * coordinating thread after the merge -- the counters share the
     * single-owner rule of the per-slice scratch.
     */
    void noteFanoutSearch(unsigned buckets_accessed);
    /// @}

    /**
     * Prefetch hint for an operation on @p key that is about to run:
     * the first min(row bytes, 512) bytes of its home row, where the
     * slot windows a lookup compares first live, and the line holding
     * the row's last word, which holds the aux field and its reach.
     * Only a key of the slice's width with exactly one home (fully
     * specified) is hinted; any other key is a no-op.  A hint changes
     * no state, so every result and counter is what it would be
     * without it.  Issued a few requests ahead, it lets the row misses
     * of consecutive operations overlap (DESIGN.md section 4c).
     */
    void prefetchHome(const Key &key) const;

    /** Records one insertBatch() chunk ingests (scratch sizing). */
    static constexpr unsigned kMaxIngestBatch = 256;

    /**
     * Bulk insert: the table ends up *bit-identical* to calling
     * insert(records[i]) in order (including rolled-back residue of
     * failed records, aux reach updates and placement statistics), and
     * outcomes[i] -- when requested -- reports exactly what the serial
     * call's InsertSummary would.
     *
     * Internally each chunk simulates the serial placement decisions
     * against a row cache (one fetch per distinct row), then applies
     * all writes row-at-a-time (one writeback per distinct row), so a
     * bursty load touching few distinct buckets pays row-bandwidth
     * instead of record-bandwidth.  The summary reports both the
     * batched row touches and what the serial path would have cost.
     */
    InsertBatchSummary insertBatch(const Record *records, unsigned n,
                                   InsertOutcome *outcomes = nullptr);

    /** Convenience overload over a contiguous record array. */
    InsertBatchSummary insertBatch(std::span<const Record> records,
                                   InsertOutcome *outcomes = nullptr);

    /**
     * Massive data evaluation (paper section 1: the "decoupled match
     * logic can be easily extended to implement more advanced
     * functionality such as massive data evaluation and modification"):
     * stream every row through the match processors and count the
     * records matching @p pattern.  Costs one access per row.
     */
    uint64_t countMatching(const Key &pattern);

    /**
     * Massive data modification: overwrite the data field of every
     * record matching @p pattern with @p new_data.  Returns the number
     * of records updated; costs one access per row.
     */
    uint64_t updateMatching(const Key &pattern, uint64_t new_data);
    /// @}

    /// @name RAM-mode operations (section 3.2)
    /// @{
    uint64_t ramLoad(uint64_t word_addr) const;
    void ramStore(uint64_t word_addr, uint64_t value);
    uint64_t ramWords() const { return array_.wordCount(); }

    /**
     * Rebuild the auxiliary fields and placement statistics by scanning
     * the array -- used after a database was constructed through RAM
     * mode (memory copy / DMA).
     *
     * Exact for fully specified keys (and for ternary keys without
     * don't-care bits in hash positions).  A *spilled* duplicated
     * ternary copy cannot be re-attributed to its true home from the
     * raw array alone; such copies are attributed to the nearest
     * candidate home, which can under-set the true home's overflow
     * reach.  Construct such databases through CAM-mode insert()
     * instead.
     */
    void adoptRamContents();
    /// @}

    /** Direct bucket access (tests, mapping layers). */
    BucketView bucket(uint64_t row) { return {array_, cfg, row}; }

    /** Placement statistics (Tables 2 and 3 inputs).  Walks every row
     *  for the home-demand histogram; amalUniform() is the O(1) way to
     *  read AMAL alone. */
    LoadStats loadStats() const;

    /** loadStats().amalUniform(), bit-identical, from the running
     *  distance histogram and record count (no row walk). */
    double
    amalUniform() const
    {
        return core::amalUniform(distanceHist, recordCount);
    }

    /** Per-bucket occupancy (valid slots), for Figure 7. */
    Histogram occupancyHistogram() const;

    /** Number of records currently stored (incl. duplicates). */
    uint64_t size() const { return recordCount; }

    /** Wipe the database and statistics. */
    void clear();

    /** Total buckets accessed by search() calls (AMAL measurement). */
    uint64_t searchAccesses() const { return accessCount; }
    uint64_t searchesPerformed() const { return searchCount; }

    /** Verify aux fields against the raw array; panics on corruption. */
    void checkIntegrity();

    const mem::MemoryArray &array() const { return array_; }

    /// @name Cache-region tracking (row-granular result-cache coherence)
    /// @{
    /** Rows are mapped onto at most this many power-of-two regions;
     *  one bit of a 64-bit region mask per region (matches
     *  engine::ResultCache::kRegions). */
    static constexpr unsigned kCacheRegions = 64;

    /** Region-mask bit covering @p row. */
    uint64_t
    cacheRegionBit(uint64_t row) const
    {
        return uint64_t{1} << ((row >> cacheRegionShift_) & 63);
    }

    /**
     * Region coverage of a lookup for @p search_key: the union of
     * cacheRegionBit() over every candidate home row (the full
     * duplication set) and every row its probe chain can currently
     * touch (distances 0..reach).  A lookup whose enumeration would
     * exceed an internal cost bound returns ~0 (all regions).  Any
     * mutation that could change this lookup's result dirties at least
     * one covered region: a plain slot write dirties the chain row
     * itself, and a reach extension beyond the current chain writes the
     * home row's aux word, whose region is always covered.  Uses the
     * same single-owner discipline as search(); @p scratch is
     * caller-owned home scratch, cleared and refilled.
     */
    uint64_t searchRegionMask(const Key &search_key,
                              std::vector<uint64_t> &scratch);

    /**
     * Drain the accumulated dirty-region mask: every row store that
     * can change a lookup's outcome since the previous call OR-ed its
     * row's region bit in (whole-array rewrites set all bits).  The
     * engine calls this after executing a mutation and bumps exactly
     * those regions in the result cache.
     */
    uint64_t
    takeDirtyRegionMask()
    {
        return dirtyRegions_.exchange(0, std::memory_order_relaxed);
    }
    /// @}

  private:
    /** Row probed at distance @p d from @p home for @p key. */
    uint64_t probeRow(uint64_t home, unsigned d, const Key &key) const;

    /**
     * Home buckets of @p key into the per-slice scratch buffer -- the
     * zero-allocation variant of homeRows() the hot paths use.  The
     * returned reference is invalidated by the next call.
     */
    const std::vector<uint64_t> &homeRowsInto(const Key &key);

    /** Search one home bucket chain with the packed search key;
     *  updates @p best under LPM. */
    bool searchChain(uint64_t home, const MatchProcessor::PackedKey &packed,
                     SearchResult &best, std::vector<uint64_t> *trace);

    /** One chunk (n <= kMaxIngestBatch) of insertBatch(). */
    InsertBatchSummary insertBatchChunk(const Record *records, unsigned n,
                                        InsertOutcome *outcomes);

    /** Remove one copy of @p packed's key homed at @p home (the first
     *  the chain walk meets), then repair the hole when the slice
     *  repairs on erase; returns true when found. */
    bool eraseAt(uint64_t home, const MatchProcessor::PackedKey &packed);

    /** Erase-time repair applies: binary keys (one home per record,
     *  recoverable from the stored bits) on a key-independent linear
     *  chain. */
    bool
    repairsOnErase() const
    {
        return !cfg.ternary && cfg.probe == ProbePolicy::Linear;
    }

    /**
     * Backward-shift repair of the hole at (@p row, @p slot): while a
     * chain passes the hole, move its farthest-displaced record from
     * the nearest row holding one into the hole, and continue from the
     * slot it vacated.  A home whose moved record sat at its reach is
     * trimmed at once.
     */
    void fillHole(uint64_t row, unsigned slot);

    /** Shrink @p home's reach to its farthest live record (binary
     *  linear slices only: homes are exact there). */
    void trimReach(uint64_t home);

    /** Value words of the binary key stored in (@p row, @p slot), read
     *  without decoding a Key; returns the word count. */
    unsigned slotValue(uint64_t row, unsigned slot, uint64_t *out) const;

    /** Home bucket of the binary record in (@p row, @p slot). */
    uint64_t slotHome(uint64_t row, unsigned slot) const;

    /** Record @p row as dirtied for cache-region accounting; called
     *  before every store that can change a lookup's outcome. */
    void
    noteRowDirty(uint64_t row)
    {
        dirtyRegions_.fetch_or(cacheRegionBit(row),
                               std::memory_order_relaxed);
    }

    /** Whole-array rewrite (clear()/adoptRamContents()): every cache
     *  region is dirty. */
    void
    noteAllRowsDirty()
    {
        dirtyRegions_.store(~uint64_t{0}, std::memory_order_relaxed);
    }

    SliceConfig cfg;
    std::unique_ptr<hash::IndexGenerator> idxGen;
    mem::MemoryArray array_;
    MatchProcessor matcher;

    // Per-slice scratch reused across lookups so a steady-state search
    // performs no heap allocation: the expanded search key (the match
    // processor's step-1 template) and the candidate home rows
    // (homeRowsInto()'s backing store).  A slice therefore must not
    // serve concurrent scratch-using calls -- the same ownership rule
    // the search counters below already impose (the parallel engine
    // gives each database to exactly one worker).  Intra-lookup shard
    // workers must NOT route through these: they use packSearchKey()/
    // candidateHomes()/searchRows() with shard-local scratch instead.
    // scratchGuard_ enforces the rule in every build (two uncontended
    // atomic ops per operation -- noise next to a row walk): each
    // scratch-using entry point panics if it observes another one in
    // flight, so aliasing bugs surface deterministically in tests
    // instead of relying on TSan luck.
    MatchProcessor::PackedKey packedKey_;
    std::vector<uint64_t> homesScratch;
    mutable std::atomic<int> scratchGuard_{0};

    /** RAII concurrent-entry detector for the per-slice scratch. */
    class [[nodiscard]] ScratchUse
    {
      public:
        explicit ScratchUse(const CaRamSlice &s);
        ~ScratchUse();

      private:
        const CaRamSlice &slice_;
    };

    /** insertBatch() scratch: a row cache holding every distinct row a
     *  chunk touches (fetched once), the simulated placements in
     *  submission order, and the row-ordered apply schedule.  All
     *  vectors retain capacity across calls, so steady-state bulk
     *  ingest performs no heap allocation.  Same single-owner rule as
     *  the search scratch. */
    struct IngestScratch
    {
        /** One cached (simulated) row: aux fields plus a valid-slot
         *  bitmask; key/data bits are only ever *written* by the
         *  placements, so they need no cache copy. */
        std::vector<uint64_t> row;      ///< row index per cache entry
        std::vector<uint16_t> used;     ///< simulated usedCount
        std::vector<uint16_t> reach;    ///< simulated overflow reach
        std::vector<uint16_t> usedAtFetch;  ///< aux as fetched
        std::vector<uint16_t> reachAtFetch; ///< aux as fetched
        std::vector<uint8_t> dirty;     ///< entry needs a writeback
        std::vector<uint64_t> valid;    ///< maskWords valid bits / entry
        /** Open-addressed row -> cache entry map (pow2, -1 = empty). */
        std::vector<int32_t> table;
        /** Precomputed home row per chunk record (software-prefetch
         *  schedule); ~0 marks records without a precomputable home. */
        std::vector<uint64_t> pfRow;

        /** One simulated slot write, in submission order. */
        struct Placement
        {
            uint32_t rec;       ///< chunk-relative record index
            uint32_t slot;      ///< slot within the row
            uint32_t entry;     ///< row cache entry of the placed row
            uint32_t homeEntry; ///< row cache entry of the home row
            uint32_t d;         ///< probe distance from home
            uint8_t dead;       ///< rolled back: write bits, clear valid
        };
        std::vector<Placement> placements;
        /** (row, placement seq) apply schedule, sorted in place. */
        std::vector<std::pair<uint64_t, uint32_t>> applyOrder;
    };
    IngestScratch ingest_;

    // Placement statistics.
    std::vector<uint32_t> homeDemandPerBucket;
    Histogram distanceHist;
    uint64_t recordCount = 0;
    uint64_t spilledCount = 0;

    // Search accounting.
    uint64_t searchCount = 0;
    uint64_t accessCount = 0;

    // Cache-region accounting: rows map onto <= kCacheRegions
    // power-of-two runs (shift chosen so the top region index fits in
    // 6 bits for any row count, power of two or not); mutations OR
    // their rows' region bits into the dirty accumulator, drained by
    // takeDirtyRegionMask().
    unsigned cacheRegionShift_ = 0;
    std::atomic<uint64_t> dirtyRegions_{0};
};

} // namespace caram::core

#endif // CARAM_CORE_SLICE_H_
