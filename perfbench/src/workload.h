#ifndef CARAM_PERFBENCH_WORKLOAD_H_
#define CARAM_PERFBENCH_WORKLOAD_H_

/**
 * @file
 * The three benchmark workloads.  A workload owns its seeded inputs -- the
 * table records, a compact request stream and the reference answers --
 * all generated before anything is timed, and knows how to load its
 * tables into an engine, turn a stream position into a PortRequest and
 * check the response against an independent reference.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/subsystem.h"
#include "engine/parallel_search_engine.h"

namespace perfbench {

/** Requests per closed-loop round and per subsystem-ladder window (the
 *  engine's default per-worker queue depth). */
constexpr std::size_t kWindow = 1024;

/** What a stream position asks for. */
enum class OpKind : uint8_t
{
    Lookup,
    Insert,
    Erase,
};

/**
 * Check results of one driver phase.  Workloads whose reference is a
 * replay (flow-churn) also keep one outcome byte per executed position
 * for that replay.
 */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Per stream position: kHit / kOk / kDataOk bits, 0 = not run. */
    std::vector<uint8_t> recorded;

    static constexpr uint8_t kRan = 1;
    static constexpr uint8_t kHit = 2;
    static constexpr uint8_t kDataOk = 4;

    /** Count one failed op and report the first few on stderr. */
    void fail(const std::string &what);
};

/**
 * A sequence of requests the drivers replay by position.  Read-only
 * sequences wrap around; a mutating one is consumed at most once from a
 * freshly loaded table.
 */
class OpSource
{
  public:
    virtual ~OpSource() = default;
    /** Distinct positions. */
    virtual std::size_t size() const = 0;
    /** True when position i is the same request as i % size(). */
    virtual bool cyclic() const = 0;
    /** Fill @p req (port, op, key, data, priority) for position @p i;
     *  the tag is left to the caller. */
    virtual void fill(std::size_t i, caram::core::PortRequest &req) const = 0;
    virtual OpKind kind(std::size_t i) const = 0;
    /** Check the response to position @p i, counting into @p out. */
    virtual void check(std::size_t i, const caram::core::PortResponse &resp,
                       Outcome &out) const = 0;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;
    /** Engine settings beyond the defaults (workers, result cache). */
    virtual caram::engine::EngineConfig engineConfig() const = 0;
    /** Add one database per port to @p sys. */
    virtual void addDatabases(caram::core::CaRamSubsystem &sys) const = 0;
    /** Bulk-load every port through ParallelSearchEngine::bulkLoad;
     *  returns the seconds spent inside bulkLoad calls. */
    virtual double load(caram::engine::ParallelSearchEngine &engine) const = 0;
    /** Records load() inserts. */
    virtual uint64_t records() const = 0;
    /** True when the stream writes, so every driver phase needs a
     *  freshly loaded table. */
    virtual bool mutating() const = 0;

    /** The seeded request stream. */
    virtual const OpSource &stream() const = 0;
    /** A read-only workload's update probe: insert/erase pairs of keys
     *  the table does not hold, cycled, so each pair leaves the table as
     *  it was (null when the stream itself writes). */
    virtual const OpSource *updateProbe() const { return nullptr; }

    /** Open-loop offered rate, requests per second (frozen). */
    virtual double openLoopRate() const = 0;
    /** Setups per run; setup_s is their median. */
    virtual unsigned setupRepeats() const = 0;

    /** Post-run reference replay over the recorded outcomes of phases
     *  that each started from a freshly loaded table.  Adds failures to
     *  each outcome. */
    virtual void replayCheck(std::vector<Outcome *> phases) const
    {
        (void)phases;
    }
};

/** Build the named workload's inputs from @p seed, sizing a mutating
 *  stream for a run of @p seconds; null if unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, double seconds);

/** Every workload name, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // CARAM_PERFBENCH_WORKLOAD_H_
