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

  private:
    /** Row probed at distance @p d from @p home.  The chain depends
     *  on the home row alone, so a ternary search key and the stored
     *  records it matches walk the same rows. */
    uint64_t probeRow(uint64_t home, unsigned d) const;

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
    // gives each database to exactly one worker, and no other thread
    // reads it).  scratchGuard_ enforces the rule in every build (two
    // uncontended atomic ops per operation -- noise next to a row
    // walk): each scratch-using entry point panics if it observes
    // another one in flight, so aliasing bugs surface
    // deterministically in tests instead of relying on TSan luck.
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
};

} // namespace caram::core

#endif // CARAM_CORE_SLICE_H_
