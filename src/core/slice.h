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

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/bucket.h"
#include "core/config.h"
#include "core/load_stats.h"
#include "core/match_processor.h"
#include "core/prefilter.h"
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

    /** Remove every stored copy whose stored key equals @p key exactly.
     *  Returns the number of copies removed. */
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
     * (search/searchBatch/erase/...) runs concurrently.
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

    /// @name Concurrent search (wait-free readers under mutation)
    /// @{
    /**
     * Caller-owned scratch for searchConcurrent(): the packed search
     * template, the candidate-home list, and a one-row memory array
     * receiving seqlock-validated row snapshots.  The row buffer is
     * (re)sized lazily to the slice's row shape, so one scratch (e.g. a
     * thread_local) serves slices of different configurations.  All
     * members retain capacity, so steady-state concurrent lookups
     * allocate nothing.
     */
    struct ConcurrentSearchScratch
    {
        MatchProcessor::PackedKey packed;
        std::vector<uint64_t> homes;
        std::unique_ptr<mem::MemoryArray> row;
        uint64_t rowBits = 0; ///< shape the row buffer was sized for
    };

    /**
     * Lookup that is safe against concurrent mutations on *other*
     * threads: every row is copied through a per-row sequence-lock
     * validated snapshot (writers bump the row's sequence odd/even
     * around their stores; a reader that observes an odd or changed
     * sequence retries the row), and the match processors then run over
     * the private snapshot.  Wait-free for readers in practice: a retry
     * only happens while a writer is mid-row.
     *
     * Semantics match search() exactly for any interleaving in which
     * each observed row is in a before-or-after-mutation state: a probe
     * chain reads the home row once (reach and slots from the same
     * snapshot), so every row-level observation is consistent.  Unlike
     * search(), this path touches *no* per-slice scratch and *no*
     * search counters (it is const) -- accounting belongs to the
     * caller, as with searchRows().
     */
    SearchResult searchConcurrent(const Key &search_key,
                                  ConcurrentSearchScratch &scratch) const;

    /**
     * Torn-read fault injection: force every @p every-th row snapshot
     * to retry once as if the sequence check had failed (0 disables).
     * Also settable at construction via the CARAM_SEQLOCK_TEAR
     * environment variable; the CI build matrix uses it to prove the
     * retry path preserves results, not just the happy path.
     */
    void setTornReadInjection(unsigned every);

    /** The active injection period (0 = disabled).  Database's
     *  rebuildSwap() copies it onto the replacement slice. */
    unsigned tornReadInjection() const
    {
        return tearEvery_.load(std::memory_order_relaxed);
    }

    /** Row snapshot retries taken (sequence mismatch or injection). */
    uint64_t tornReadRetries() const;
    /// @}

    /// @name Per-row counting pre-filter (guaranteed-miss short-circuit)
    /// @{
    /**
     * Gate *consultation* of the per-row pre-filter (RowPrefilter; see
     * DESIGN.md section 4e).  The filter's counters are maintained by
     * every mutation path regardless of this flag -- a handful of
     * relaxed atomic stores per placed or erased copy -- so flipping
     * consultation on or off never requires a rebuild, and the default
     * (off) leaves every search path's row fetches and access
     * accounting exactly as they were.  With consultation on, rows the
     * filter proves empty of any possible match are skipped before the
     * fetch and before the bucketsAccessed charge; result payloads
     * (hit/data/key, LPM winner) are unchanged.  Engine-owned slices
     * get this set from EngineConfig::prefilter / CARAM_PREFILTER;
     * Database::rebuildSwap() copies it onto the replacement slice.
     */
    void
    setPrefilterEnabled(bool on)
    {
        prefilterEnabled_.store(on, std::memory_order_relaxed);
    }

    bool
    prefilterEnabled() const
    {
        return prefilterEnabled_.load(std::memory_order_relaxed);
    }

    /** Rows consulted / rows skipped by the filter across all search
     *  paths (EngineReport surfaces the per-engine sums). */
    uint64_t
    prefilterProbes() const
    {
        return prefilterProbes_.load(std::memory_order_relaxed);
    }

    uint64_t
    prefilterSkips() const
    {
        return prefilterSkips_.load(std::memory_order_relaxed);
    }

    /**
     * Drop candidate homes whose whole probe chain the filter proves
     * empty (mirrored reach 0 and a failing home-row consult) from
     * @p homes, preserving order -- the fan-out path's shard pruning.
     * Counts one probe and one skip per *pruned* home only; surviving
     * homes are consulted again inside the shard walks, so the counter
     * totals match a serial filtered search of the same key.  No-op
     * while consultation is disabled or the filter is suspended.
     */
    void prefilterPruneHomes(const Key &search_key,
                             std::vector<uint64_t> &homes);

    /** Filter memory footprint, bytes (overhead accounting). */
    uint64_t
    prefilterMemoryBytes() const
    {
        return filter_.memoryBytes();
    }
    /// @}

    /** Keys one searchBatch() chunk groups (scratch sizing). */
    static constexpr unsigned kMaxBatch = 32;

    /**
     * Batched lookup: out[i] receives exactly what search(keys[i])
     * would return (bit-identical results and per-key bucketsAccessed;
     * the search counters advance as if the calls were serial).
     *
     * Keys sharing a home bucket are matched as a *group* against each
     * fetched row -- the multi-key comparator compares one row fetch
     * against every key of the group simultaneously, the way the
     * hardware's match processors amortize a row access across parallel
     * comparators.  Keys whose probe rows are key-dependent (SecondHash
     * chains past the home bucket) or that hash to multiple candidate
     * buckets fall back to the serial chain walk, preserving exact
     * equivalence.
     *
     * Returns the number of row fetches the batched execution performs:
     * a row matched for a whole group counts once, while the serial
     * path would fetch it once per key.  (Per-key bucketsAccessed in
     * @p out still reports the serial-equivalent count -- the fetch
     * count is the batched cost model's input.)
     */
    uint64_t searchBatch(const Key *const *keys, unsigned n,
                         SearchResult *out);

    /** Convenience overload over a contiguous key array. */
    uint64_t searchBatch(std::span<const Key> keys, SearchResult *out);

    /** searchBatch() chunks processed / chunks whose group-by sort was
     *  skipped because the chunk arrived already run-ordered (an O(n)
     *  pre-scan detects this before paying the O(n log n) sort). */
    uint64_t batchChunksProcessed() const { return batchChunks_; }
    uint64_t batchSortsSkipped() const { return batchSortsSkipped_; }

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

    /** Placement statistics (Tables 2 and 3 inputs). */
    LoadStats loadStats() const;

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
     * duplication set, pre-filter pruning NOT applied -- a pruned home
     * that later gains a record must still invalidate) and every row
     * its probe chain can currently touch (distances 0..reach).  A
     * lookup whose enumeration would exceed an internal cost bound
     * returns ~0 (all regions).  Any mutation that could change this
     * lookup's result dirties at least one covered region: a plain
     * slot write dirties the chain row itself, and a reach extension
     * beyond the current chain writes the home row's aux word, whose
     * region is always covered.  Uses the same single-owner discipline
     * as search() (reads bucket aux words unvalidated); @p scratch is
     * caller-owned home scratch, cleared and refilled.
     */
    uint64_t searchRegionMask(const Key &search_key,
                              std::vector<uint64_t> &scratch);

    /**
     * Drain the accumulated dirty-region mask: every row seqlock
     * writer section since the previous call OR-ed its row's region
     * bit in (whole-array guards set all bits).  The engine's writer
     * lane calls this after applying a mutation batch and bumps
     * exactly those regions in the result cache.
     */
    uint64_t
    takeDirtyRegionMask()
    {
        return dirtyRegions_.exchange(0, std::memory_order_relaxed);
    }
    /// @}

    /// @name Online maintenance primitives (engine::MaintenanceEngine)
    ///
    /// All of these follow the same single-mutation-authority rule as
    /// insert()/erase(): the caller must be the thread that owns this
    /// slice's mutations (the engine runs them on the port's writer
    /// lane).  Concurrent searchConcurrent() readers are safe
    /// throughout -- every store happens inside a row seqlock writer
    /// section, and the two-phase migration protocol (publish the new
    /// copy, epoch-quiesce, then remove the old one) guarantees a
    /// reader observes at least one complete copy at every instant.
    /// @{
    /** One stored copy surfaced by maintenanceScanRow(): where it
     *  sits, which home bucket it is attributed to, and at what probe
     *  distance.  Only fully specified keys are reported -- they have
     *  exactly one candidate home, so home and distance are
     *  recoverable from the raw array alone (duplicated ternary
     *  copies are left where insert() put them). */
    struct MaintenanceSlot
    {
        unsigned slot = 0;      ///< slot index within the scanned row
        Record record;          ///< stored key + data
        uint64_t home = 0;      ///< attributed home bucket
        unsigned distance = 0;  ///< probe distance home -> scanned row
    };

    /** Enumerate the attributable copies stored in @p row into @p out
     *  (cleared first).  Returns the number reported. */
    unsigned maintenanceScanRow(uint64_t row,
                                std::vector<MaintenanceSlot> &out);

    /** True when some probe row of @p key at distance < @p distance
     *  from @p home has a free slot -- i.e. a copy currently sitting
     *  at @p distance could be migrated strictly closer to home. */
    bool maintenanceHasCloserSlot(uint64_t home, unsigned distance,
                                  const Key &key);

    /**
     * Shrink @p home's overflow reach to the furthest probe distance
     * that still holds a copy attributable to @p home, after erases
     * have hollowed out the chain tail.  Conservative: a distance
     * stays alive while *any* record in its row lists @p home among
     * its candidate buckets, so no reachable copy ever drops out of
     * the walk (concurrent readers see either reach and find every
     * copy either way).  Linear probing only -- SecondHash strides
     * are key-dependent (the chain is not enumerable without the
     * departed keys) and None never sets a reach.  Returns the number
     * of distances trimmed (0 if nothing changed).
     */
    unsigned maintenanceTrimReach(uint64_t home);
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

    /** One chunk (n <= kMaxBatch) of searchBatch(); returns fetches. */
    uint64_t searchBatchChunk(const Key *const *keys, unsigned n,
                              SearchResult *out);

    /** One chunk (n <= kMaxIngestBatch) of insertBatch(). */
    InsertBatchSummary insertBatchChunk(const Record *records, unsigned n,
                                        InsertOutcome *outcomes);

    /**
     * Walk one shared probe chain for a group of same-home keys
     * (d-th row identical for every key: Linear/None probing, or a
     * zero-reach home).  @p pf routes each lane through the pre-filter
     * (sig/sigUsable scratch must be filled); a row is fetched only
     * when at least one live lane passes.  Returns the row fetches
     * performed.
     */
    uint64_t searchGroupChain(uint64_t home, unsigned reach,
                              const uint32_t *idx, unsigned group_size,
                              SearchResult *out, bool pf);

    /** Remove one copy of @p packed's key homed at @p home; returns
     *  true when found. */
    bool eraseAt(uint64_t home, const MatchProcessor::PackedKey &packed);

    /**
     * Writer side of the row seqlock: bump the row's (striped) sequence
     * to odd on entry, back to even on exit, with the fences the
     * TSan-clean seqlock recipe requires (entry: relaxed increment then
     * release fence, so the data stores cannot float above the odd
     * value; exit: release increment, so they cannot sink below the
     * even one).  Guards must NOT nest -- a second guard on the same
     * stripe would flip the sequence back to even mid-write -- so every
     * mutation site takes disjoint, sequential guard scopes.
     */
    class [[nodiscard]] RowWriteGuard
    {
      public:
        RowWriteGuard(CaRamSlice &s, uint64_t row);
        ~RowWriteGuard();
        RowWriteGuard(const RowWriteGuard &) = delete;
        RowWriteGuard &operator=(const RowWriteGuard &) = delete;

      private:
        std::atomic<uint64_t> &seq_;
    };

    /** Record @p row as dirtied for cache-region accounting; called by
     *  every RowWriteGuard construction (the guard brackets exactly
     *  the stores that can change a lookup's outcome). */
    void
    noteRowDirty(uint64_t row)
    {
        dirtyRegions_.fetch_or(cacheRegionBit(row),
                               std::memory_order_relaxed);
    }

    /** Whole-array writer guard for clear()/adoptRamContents(): marks
     *  every stripe busy for the duration. */
    class [[nodiscard]] AllRowsWriteGuard
    {
      public:
        explicit AllRowsWriteGuard(CaRamSlice &s);
        ~AllRowsWriteGuard();
        AllRowsWriteGuard(const AllRowsWriteGuard &) = delete;
        AllRowsWriteGuard &operator=(const AllRowsWriteGuard &) = delete;

      private:
        CaRamSlice &slice_;
    };

    /** Seqlock-validated snapshot of @p row into @p dst (wordsPerRow
     *  words); retries until a consistent copy is read. */
    void snapshotRowConcurrent(uint64_t row, uint64_t *dst) const;

    /** True when fault injection wants the next snapshot to retry. */
    bool tearPending() const;

    /** Consultation on and the filter trustworthy (not suspended by a
     *  RAM-mode store)?  Checked once per search entry point. */
    bool
    prefilterActive() const
    {
        return prefilterEnabled_.load(std::memory_order_relaxed) &&
               !filter_.suspended();
    }

    /**
     * Filter consult for concurrent readers: the verdict is trusted
     * only when @p row's seqlock stripe was quiescent across the read
     * (every filter write happens inside a writer section, so a
     * validated read observes a published filter state).  Returns true
     * -- fetch the row -- whenever validation fails; the error stays
     * one-sided (see DESIGN.md section 4e).
     */
    bool prefilterMayMatchConcurrent(uint64_t row, uint64_t sig,
                                     bool sig_usable) const;

    /** Validated home consult: mayMatch plus the mirrored reach.  When
     *  validation fails, returns false with @p valid cleared -- the
     *  caller snapshots the home row and reads its reach instead. */
    bool prefilterConsultHomeConcurrent(uint64_t home, uint64_t sig,
                                        bool sig_usable,
                                        unsigned &reach_out,
                                        bool &valid) const;

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

    /** searchBatch() scratch, sized once: per-key packed templates and
     *  grouping tables for one chunk, plus the transposed key group.
     *  Same single-owner rule as the scratch above. */
    struct BatchScratch
    {
        std::array<MatchProcessor::PackedKey, kMaxBatch> packed;
        std::array<uint64_t, kMaxBatch> home;
        std::array<uint32_t, kMaxBatch> order;
        /** Per-key pre-filter signature + usability, filled only when
         *  the filter is consulted for the chunk. */
        std::array<uint64_t, kMaxBatch> sig;
        std::array<uint8_t, kMaxBatch> sigUsable;
        MatchProcessor::PackedKeyGroup group;
        std::array<BucketMatch, kernels::kMaxGroupKeys> groupOut;
    };
    BatchScratch batch_;

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

    // Batched-search accounting (sort-skip effectiveness).
    uint64_t batchChunks_ = 0;
    uint64_t batchSortsSkipped_ = 0;

    // Striped per-row sequence locks: stripe count is the row count
    // rounded up to a power of two, capped at 64 Ki stripes (1 MiB of
    // padded counters).  False sharing between adjacent stripes is
    // avoided by cache-line alignment; false *conflicts* (two rows on
    // one stripe) only cost a reader retry, never correctness.  The
    // writer side assumes a single mutating thread per slice -- the
    // ownership rule the scratch guard already enforces -- so the
    // sequence bump needs no CAS.
    struct alignas(64) RowSeq
    {
        std::atomic<uint64_t> v{0};
    };
    std::vector<RowSeq> rowSeqs_;
    uint64_t seqMask_ = 0;

    // Cache-region accounting: rows map onto <= kCacheRegions
    // power-of-two runs (shift chosen so the top region index fits in
    // 6 bits for any row count, power of two or not); writer sections
    // OR their row's region bit into the dirty accumulator, drained by
    // takeDirtyRegionMask().
    unsigned cacheRegionShift_ = 0;
    std::atomic<uint64_t> dirtyRegions_{0};

    // Torn-read fault injection (CARAM_SEQLOCK_TEAR / the setter) and
    // the retry observability counter.  Mutable: the reader side is
    // const.
    std::atomic<unsigned> tearEvery_{0};
    mutable std::atomic<uint64_t> snapshotTick_{0};
    mutable std::atomic<uint64_t> tornRetries_{0};

    // The per-row counting pre-filter.  Maintained unconditionally by
    // every mutation path (inside the rows' seqlock writer sections);
    // consulted by the search paths only when prefilterEnabled_ says
    // so and no RAM-mode store has suspended it.  The skip/probe
    // counters are atomic because fan-out shard workers walk chains
    // concurrently (relaxed: they are observability, not ordering).
    RowPrefilter filter_;
    std::atomic<bool> prefilterEnabled_{false};
    mutable std::atomic<uint64_t> prefilterProbes_{0};
    mutable std::atomic<uint64_t> prefilterSkips_{0};
};

} // namespace caram::core

#endif // CARAM_CORE_SLICE_H_
