#ifndef CARAM_ENGINE_MAINTENANCE_ENGINE_H_
#define CARAM_ENGINE_MAINTENANCE_ENGINE_H_

/**
 * @file
 * Self-managing online maintenance (DESIGN.md section 4f).
 *
 * The paper treats table repair as an offline operation: when erase
 * holes and overflow chains degrade AMAL, Database::rebuild() drains
 * the port and repacks the table wholesale.  MaintenanceEngine makes
 * the table self-managing instead, in the spirit of autonomous
 * in-DRAM maintenance (SelfManagingDRAM) and PIM hashmaps that overlap
 * housekeeping with lookups (HashMem): a background *planner* thread
 * paces small incremental steps -- and the steps themselves execute on
 * the port's owning worker through the ordinary request plumbing,
 * between two of the port's requests, so no other thread ever sees a
 * table mid-step.  No drain, no downtime.
 *
 * One step visits a bounded run of rows and, per row:
 *  - **Migration / hole filling**: a spilled record whose probe chain
 *    now has a free slot strictly closer to its home bucket is moved
 *    there in one go: insertAt() the closer copy, then
 *    removePlacement() the far one.
 *  - **Reach trimming**: a home bucket whose linear overflow chain was
 *    hollowed out by erases gets its reach shrunk to the furthest
 *    surviving attributable copy, so lookups stop walking dead rows.
 *  - **Overflow adoption**: a record that spilled to the parallel
 *    overflow slice is adopted back into its (now free) home bucket in
 *    the main table the same way, shortening the parallel chain every
 *    lookup races against.
 *
 * Interference is bounded SMD-style: at most one step is outstanding,
 * a step runs only when the engine is idle or enough foreground
 * operations completed since the last step, and the planner backs off
 * under queue pressure.  Steps charge their modeled row operations to
 * the owning worker's cycle account, so the interference is visible in
 * modeled throughput, not hidden.
 *
 * Result-stream invariance: migration and adoption are restricted to
 * tables with fully specified (binary) keys, where a search key can
 * match only records storing that exact key; moving such a copy can
 * change which *slot* answers, never the (key, data) payload, as long
 * as equal keys carry equal data (the keyed-table discipline every
 * engine workload in this repo follows).  Ternary tables -- where a
 * widened lookup can match several distinct records and the winner is
 * chain-order-sensitive -- get reach trimming only, which never
 * changes hit/data, just the rows walked.  bucketsAccessed *is*
 * allowed to change (that is the whole point: chains get shorter);
 * differential tests compare it only on maintenance-off legs.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/slice.h"

namespace caram::engine {

class ParallelSearchEngine;

/** Background maintenance planner + owner-side step executor.  Owned
 *  by ParallelSearchEngine (one per engine, covering all its ports). */
class MaintenanceEngine
{
  public:
    /** Rows one maintenance step visits (the SMD-style unit of
     *  bounded interference). */
    static constexpr unsigned kRowsPerStep = 8;
    /** Foreground completions that must land between steps while the
     *  engine is busy (idle engines step back-to-back). */
    static constexpr uint64_t kForegroundOpsPerStep = 8;
    /** Queue-pressure threshold: the planner backs off while more
     *  foreground requests than this are in flight. */
    static constexpr uint64_t kBackoffInflight = 256;

    explicit MaintenanceEngine(ParallelSearchEngine &engine);
    ~MaintenanceEngine();

    MaintenanceEngine(const MaintenanceEngine &) = delete;
    MaintenanceEngine &operator=(const MaintenanceEngine &) = delete;

    /** Spawn the planner thread (call after the engine's workers are
     *  up). */
    void start();

    /** Stop and join the planner. */
    void stopPlanner();

    /**
     * Execute one maintenance step against @p port's database.  Must
     * run on the port's owning worker --
     * ParallelSearchEngine::execute() routes PortOp::Maintenance
     * requests here.  Returns the modeled row operations performed
     * (row scans + slot writes), which the caller charges to the
     * worker's cycle account.
     */
    uint64_t executeStep(core::Database &db, unsigned port);

    /// @name Report accessors (relaxed counters, readable any time)
    /// @{
    uint64_t steps() const { return steps_.load(std::memory_order_relaxed); }
    uint64_t sweeps() const
    {
        return sweeps_.load(std::memory_order_relaxed);
    }
    uint64_t rowsMigrated() const
    {
        return rowsMigrated_.load(std::memory_order_relaxed);
    }
    uint64_t overflowCompacted() const
    {
        return overflowCompacted_.load(std::memory_order_relaxed);
    }
    uint64_t reachTrims() const
    {
        return reachTrims_.load(std::memory_order_relaxed);
    }
    uint64_t backoffs() const
    {
        return backoffs_.load(std::memory_order_relaxed);
    }
    /** Mean database AMAL over the ports that stepped, sampled at each
     *  port's first step (0 when none stepped yet). */
    double amalBefore() const;
    /** Mean database AMAL over the ports that completed a sweep,
     *  sampled at the most recent sweep end (0 until one completes). */
    double amalAfter() const;
    /// @}

  private:
    /** Per-port maintenance state.  The sweep cursor and scratch are
     *  touched only by the port's owning worker; the amal cells are
     *  atomics because report() reads them live. */
    struct PortMaintenance
    {
        uint64_t cursor = 0; ///< next row in the main+overflow span
        std::vector<core::CaRamSlice::MaintenanceSlot> scan;
        std::atomic<bool> amalSeeded{false};
        std::atomic<uint64_t> amalBeforeBits{0};
        std::atomic<uint64_t> amalAfterBits{0};
        std::atomic<bool> amalAfterSet{false};
    };

    void plannerMain();
    /** Migrate/trim pass over one main-table row. */
    uint64_t mainRowPass(core::Database &db, PortMaintenance &pm,
                         uint64_t row, bool migrate, bool trim);
    /** Adoption pass over one overflow-slice row. */
    uint64_t overflowRowPass(core::Database &db, PortMaintenance &pm,
                             uint64_t row);

    ParallelSearchEngine *engine_;
    std::vector<std::unique_ptr<PortMaintenance>> ports_;
    std::thread planner_;
    std::atomic<bool> stop_{false};
    /** 1 while a submitted step has not finished executing (the
     *  planner's ">= 1 outstanding step" arbitration bound). */
    std::atomic<unsigned> outstanding_{0};
    /** Foreground completion count at the last submitted step. */
    uint64_t lastStepCompleted_ = 0;
    unsigned nextPort_ = 0;

    std::atomic<uint64_t> steps_{0};
    std::atomic<uint64_t> sweeps_{0};
    std::atomic<uint64_t> rowsMigrated_{0};
    std::atomic<uint64_t> overflowCompacted_{0};
    std::atomic<uint64_t> reachTrims_{0};
    std::atomic<uint64_t> backoffs_{0};
};

} // namespace caram::engine

#endif // CARAM_ENGINE_MAINTENANCE_ENGINE_H_
