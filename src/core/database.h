#ifndef CARAM_CORE_DATABASE_H_
#define CARAM_CORE_DATABASE_H_

/**
 * @file
 * The programmer-facing database object of paper section 3.2: "it is
 * desirable to hide and encapsulate CA-RAM hardware details in a program
 * construct similar to a C++/Java object which can be accessed only
 * through its access functions".
 *
 * A Database owns a logical CA-RAM slice built from a physical
 * arrangement of slices (horizontal / vertical), optionally an overflow
 * TCAM "accessed simultaneously with the main CA-RAM" so that "AMAL
 * becomes 1" (section 4.3), and the cost/performance model hooks.
 */

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "cam/tcam.h"
#include "core/config.h"
#include "core/load_stats.h"
#include "core/record.h"
#include "core/slice.h"
#include "mem/timing.h"

namespace caram::core {

/** Overflow handling of a database. */
enum class OverflowPolicy
{
    Probing,       ///< spill into subsequent buckets (the slice's policy)
    ParallelTcam,  ///< spill into a victim TCAM searched in parallel
    /** Spill into a dedicated (smaller) CA-RAM slice searched in
     *  parallel -- "one can employ a CAM (alternatively a CA-RAM) to
     *  keep spilled records, similar to victim caching" (section 4),
     *  at RAM density instead of TCAM density. */
    ParallelSlice,
};

/**
 * Power state (paper section 3.2, "setting power management policies"):
 * the eDRAM macro offers "a power-down data retention mode"
 * (Morishita et al. [20]).
 */
enum class PowerState
{
    Active,    ///< full operation
    Retention, ///< contents kept alive; no accesses allowed
};

/** Everything needed to build a Database. */
struct DatabaseConfig
{
    std::string name = "db";

    /** Per-physical-slice shape. */
    SliceConfig sliceShape;

    /** Number of physical slices and how they are arranged. */
    unsigned physicalSlices = 1;
    Arrangement arrangement = Arrangement::Horizontal;

    /**
     * Mixed (grid) arrangement: when both are nonzero, the database is
     * gridVertical x gridHorizontal physical slices and
     * physicalSlices/arrangement are ignored (section 3.2's "mixed
     * way").
     */
    unsigned gridVertical = 0;
    unsigned gridHorizontal = 0;

    OverflowPolicy overflow = OverflowPolicy::Probing;
    /** Victim TCAM capacity when overflow == ParallelTcam. */
    std::size_t overflowCapacity = 0;
    /** Overflow slice shape when overflow == ParallelSlice. */
    unsigned overflowIndexBits = 0;
    unsigned overflowSlots = 0;

    /**
     * Builds the index generator for the *effective* (arranged) slice
     * configuration.
     */
    std::function<std::unique_ptr<hash::IndexGenerator>(
        const SliceConfig &)> indexFactory;

    /** The effective logical configuration. */
    SliceConfig effectiveConfig() const;
};

/** A searchable database hosted on CA-RAM. */
class Database
{
  public:
    explicit Database(DatabaseConfig config);

    const std::string &name() const { return cfg.name; }
    const DatabaseConfig &config() const { return cfg; }
    PhysicalLayout layout() const;

    /** Detailed outcome of an insert, for AMAL accounting. */
    struct DetailedInsert
    {
        bool ok = false;
        unsigned copies = 0;     ///< CA-RAM copies placed
        unsigned tcamCopies = 0; ///< overflow entries created (0 or 1)
        unsigned maxDistance = 0;
        /** Expected memory accesses to look this record up, averaged
         *  over its duplicated copies (1 + probe distance; overflow
         *  entries cost a single parallel access). */
        double meanAccessCost = 0.0;
    };

    /**
     * Insert a record.  @p priority orders multi-matches in the victim
     * TCAM (use the prefix length for LPM databases).  Copies that do
     * not fit their bucket go to the overflow TCAM when configured.
     */
    bool insert(const Record &record, int priority = 0);

    /** insert() with placement detail. */
    DetailedInsert insertDetailed(const Record &record, int priority = 0);

    /**
     * Bulk insert: the contents end up identical to inserting the
     * records one at a time, in order.  Probing databases take the
     * row-ordered CaRamSlice::insertBatch fast path (one fetch + one
     * writeback per distinct row); databases with a parallel overflow
     * area place records one at a time through insertDetailed() --
     * those records are counted in the summary's fallbackRecords.
     * @p outcomes (length records.size()) receives per-record results;
     * @p priorities, when given, supplies each record's multi-match
     * priority for overflow-TCAM spills.
     */
    InsertBatchSummary insertBatch(std::span<const Record> records,
                                   InsertOutcome *outcomes = nullptr,
                                   const int *priorities = nullptr);

    /** Outcome of one rebuild() pass. */
    struct RebuildSummary
    {
        bool ok = false;            ///< ran and every record was re-placed
        uint64_t records = 0;       ///< logical records re-ingested
        uint64_t failedRecords = 0; ///< records that no longer fit
        InsertBatchSummary ingest;  ///< bulk re-ingest accounting
    };

    /**
     * True when the contents can be reconstructed from the slices
     * alone: Probing always can (a record's duplicated copies are
     * recovered by dividing its stored multiplicity by its
     * candidate-home count -- exact because insert() is
     * all-or-nothing); ParallelSlice only for binary keys (single
     * home, so main and overflow multiplicities simply add);
     * ParallelTcam never (TCAM entries and their multi-match
     * priorities are not enumerable from outside).
     */
    bool canRebuild() const;

    /**
     * Repack after load-factor drift: collect every stored record,
     * clear, and bulk re-ingest through insertBatch().  Erase-created
     * slot holes close up and probe chains shorten; placements may
     * move, but the searchable record set is preserved.  Returns
     * ok == false without touching the contents when !canRebuild();
     * a nonzero failedRecords means some records no longer fit (they
     * are dropped -- check before relying on a rebuilt table).
     */
    RebuildSummary rebuild();

    /** Search the CA-RAM (and the overflow TCAM, in parallel). */
    SearchResult search(const Key &search_key);

    /**
     * Prefetch hint for an operation on @p key that is about to run
     * (CaRamSlice::prefetchHome on the main slice); a no-op unless the
     * database is Active.
     */
    void
    prefetchHome(const Key &key) const
    {
        if (powerState() == PowerState::Active)
            slice_->prefetchHome(key);
    }

    /**
     * Fold the parallel overflow area's verdict into a main-slice
     * search result -- the public tail of search() for callers that
     * produced @p result themselves via the shard-scoped fan-out path
     * (CaRamSlice::searchRows + mergeShardResults).  Applying this to
     * the merged shard result reproduces search() bit-identically,
     * including the ParallelSlice max-of-both-paths bucketsAccessed.
     * Returns the overflow-area row fetches (0 for ParallelTcam and
     * Probing), which overlap the main-slice shards in modeled time.
     */
    uint64_t mergeOverflowResult(const Key &search_key,
                                 SearchResult &result);

    /**
     * Remove one logical record stored under @p key: one copy per
     * candidate home (CaRamSlice::erase), plus one overflow-area record
     * when some home held no copy.  A key inserted twice survives one
     * erase -- the m / c arithmetic of rebuild() assumes the same rule.
     * For a binary key this removes exactly the copy search() answers
     * with.  Returns the number of copies removed.
     */
    unsigned erase(const Key &key);

    /** Number of records (CA-RAM copies + overflow entries). */
    uint64_t size() const;

    void clear();

    CaRamSlice &slice() { return *slice_; }
    const CaRamSlice &slice() const { return *slice_; }

    /**
     * Enable or disable pre-filter consultation on the main slice and
     * (when present) the overflow slice.  rebuild() repacks in place,
     * so the setting survives it.
     */
    void
    setPrefilterEnabled(bool on)
    {
        slice_->setPrefilterEnabled(on);
        if (overflowSlice_)
            overflowSlice_->setPrefilterEnabled(on);
    }

    bool prefilterEnabled() const { return slice_->prefilterEnabled(); }

    /** The overflow TCAM, or nullptr when not using ParallelTcam. */
    cam::Tcam *overflowTcam() { return overflow_.get(); }
    const cam::Tcam *overflowTcam() const { return overflow_.get(); }

    /** The overflow CA-RAM slice, or nullptr when not using
     *  ParallelSlice. */
    CaRamSlice *overflowSlice() { return overflowSlice_.get(); }

    /** Records that went to the overflow area. */
    uint64_t
    overflowEntries() const
    {
        if (overflow_)
            return overflow_->size();
        if (overflowSlice_)
            return overflowSlice_->size();
        return 0;
    }

    /** True when lookups consult a parallel overflow area (victim TCAM
     *  or overflow slice).  Overflow writes are folded into the main
     *  slice's row regions through noteOverflowMutation(), so row
     *  granular cache coherence stays precise on such databases. */
    bool hasOverflowArea() const { return overflow_ || overflowSlice_; }

    /**
     * Region coverage of a lookup (CaRamSlice::searchRegionMask over
     * the main slice).  The same coverage is sound for the overflow
     * area: an overflow write that can change this lookup's outcome
     * involves a record this key matches, and a matching record shares
     * at least one candidate home row with the key (its stored value
     * agrees with the key's on every mutually cared index bit), so the
     * noteOverflowMutation() mask recorded at the write intersects the
     * mask stamped here.
     */
    uint64_t
    searchRegionMask(const Key &key, std::vector<uint64_t> &scratch)
    {
        return slice_->searchRegionMask(key, scratch);
    }

    /** Drain the dirty-region accumulators: the main slice's row
     *  writes plus every overflow-area write recorded through
     *  noteOverflowMutation(). */
    uint64_t
    takeDirtyRegionMask()
    {
        uint64_t mask = slice_->takeDirtyRegionMask();
        if (hasOverflowArea())
            mask |=
                overflowDirtyRegions_.exchange(0, std::memory_order_relaxed);
        return mask;
    }

    /**
     * Record that the overflow area gained, lost, or modified a copy
     * of @p key: ORs the key's *main-slice* region coverage into the
     * overflow dirty accumulator, so takeDirtyRegionMask() invalidates
     * exactly the regions whose lookups the write could affect (see
     * searchRegionMask()).  Every Database overflow write path calls
     * it.
     */
    void noteOverflowMutation(const Key &key);

    /** Placement statistics of the CA-RAM part. */
    LoadStats loadStats() const { return slice_->loadStats(); }

    /**
     * AMAL of this database: with a parallel overflow TCAM every lookup
     * is a single access; with probing it follows the placement.  Reads
     * the slices' running distance histograms -- O(1) in the table size.
     */
    double amal() const;

    /// @name Cost model (paper sections 3.4 / 4.3)
    /// @{
    /** Nominal key storage bits (the paper's area accounting). */
    uint64_t nominalStorageBits() const;

    /** Area in um^2, including the overflow TCAM when present. */
    double areaUm2() const;

    /** Average energy per lookup, nJ, at the current AMAL. */
    double searchEnergyNj() const;

    /** Sustained power at @p searches_per_sec lookups/s. */
    double powerW(double searches_per_sec) const;

    /** Paper eq: B = N_slice / n_mem * f_clk (independent banks only). */
    double searchBandwidthMsps(const mem::MemTiming &timing) const;
    /// @}

    /// @name Power management (section 3.2)
    /// @{
    PowerState
    powerState() const
    {
        return powerState_.load(std::memory_order_acquire);
    }

    /** Enter/leave the data-retention mode.  CAM-mode operations on a
     *  retained database throw FatalError. */
    void
    setPowerState(PowerState state)
    {
        powerState_.store(state, std::memory_order_release);
    }
    /// @}

  private:
    /** Throws when the database is not accessible. */
    void checkAccessible() const;

    /** Fold the parallel overflow area's verdict into @p result (the
     *  shared tail of search() and mergeOverflowResult()); adds any
     *  overflow-slice row accesses to @p overflow_fetches. */
    void mergeOverflow(const Key &search_key, SearchResult &result,
                       uint64_t &overflow_fetches);

    DatabaseConfig cfg;
    std::unique_ptr<CaRamSlice> slice_;
    std::unique_ptr<cam::Tcam> overflow_;
    std::unique_ptr<CaRamSlice> overflowSlice_;
    /** Atomic: an engine's worker reads it while the application flips
     *  retention (powerState()/checkAccessible() vs setPowerState()). */
    std::atomic<PowerState> powerState_{PowerState::Active};
    /** Main-slice region bits dirtied by overflow-area writes since the
     *  last takeDirtyRegionMask() (see noteOverflowMutation()).  Atomic
     *  only for the exchange pairing with the drain; writes come from
     *  the single mutation authority. */
    std::atomic<uint64_t> overflowDirtyRegions_{0};
};

} // namespace caram::core

#endif // CARAM_CORE_DATABASE_H_
