#ifndef CARAM_PERFBENCH_DRIVERS_H_
#define CARAM_PERFBENCH_DRIVERS_H_

/**
 * @file
 * The drivers every workload runs through: set-up of an engine stack, the
 * closed loop, the open loop, the one-at-a-time loop of the update probe,
 * and the modeled-time figure.
 */

#include <memory>
#include <optional>
#include <vector>

#include "core/subsystem.h"
#include "engine/parallel_search_engine.h"
#include "util.h"
#include "workload.h"

namespace perfbench {

/** A subsystem with its engine.  Members are declared so destruction
 *  stops the engine before the subsystem it serves goes away; release()
 *  does the same in place. */
struct Stack
{
    std::unique_ptr<caram::core::CaRamSubsystem> sys;
    std::unique_ptr<caram::engine::ParallelSearchEngine> engine;
    /** Creating the subsystem .. bulk loads done .. engine started. */
    double setupSeconds = 0.0;
    /** The part of setupSeconds spent inside bulkLoad. */
    double loadSeconds = 0.0;

    void
    release()
    {
        engine.reset();
        sys.reset();
    }
};

/**
 * Pin each thread of the process to its own CPU, round-robin over the
 * CPUs the process may use, the client first.  Unpinned, latency and
 * throughput switched between two levels up to 2x apart from one run, or
 * one second, to the next, as the guest scheduler placed the threads
 * differently.
 */
void pinThreads();

/** Build @p w's tables and engine; @p workers overrides the workload's
 *  worker count, @p start spawns the engine's threads (then pinned). */
Stack buildStack(const Workload &w, std::optional<unsigned> workers,
                 bool start);

/** Print the engine settings @p e resolved (after the environment knobs
 *  were cleared) and the active match kernel. */
void printResolved(const Workload &w,
                   const caram::engine::ParallelSearchEngine &e);

/** Span names of the traced closed loop. */
struct EngineSpanIds
{
    uint32_t round = 0, submit = 0, drain = 0, fetch = 0;
};

struct ClosedResult
{
    uint64_t ops = 0;
    double seconds = 0.0;
    /** Throughput of each round (kWindow requests, or fewer at the end
     *  of a non-cyclic source), Mops. */
    std::vector<double> roundMops;
};

/**
 * Closed loop: rounds of kWindow requests -- submitBatch, drain() (the
 * client blocks there), then fetchResult for each -- starting at
 * position @p first, until @p seconds elapse or @p max_ops ran (or a
 * non-cyclic source is exhausted).  With @p spans, every engine call is
 * recorded as a span.
 */
ClosedResult closedLoop(caram::engine::ParallelSearchEngine &eng,
                        unsigned ports, const OpSource &src,
                        std::size_t first, Outcome &out, double seconds,
                        uint64_t max_ops, SpanRecorder *spans = nullptr,
                        const EngineSpanIds *ids = nullptr);

/** Latencies of one kind of request, microseconds: every one, binned,
 *  and the medians of consecutive windows of them. */
struct Latencies
{
    LatencyHist all;
    WindowMedians windows;

    void
    add(double us)
    {
        all.add(us);
        windows.add(us);
    }
};

struct OpenResult
{
    uint64_t ops = 0;
    double seconds = 0.0;
    /** Due time -> response fetched, per op kind. */
    Latencies search, update;
    /** Due time -> submitted: how late the generator ran, microseconds. */
    LatencyHist lateUs;
};

/**
 * Open loop: @p count requests from position @p first with Poisson
 * arrivals at @p rate per second (seeded by @p seed); each is timed from
 * its due time.  The one client thread submits what is due and polls
 * fetchResult in between.
 */
OpenResult openLoop(caram::engine::ParallelSearchEngine &eng, unsigned ports,
                    const OpSource &src, std::size_t first, Outcome &out,
                    double rate, uint64_t count, uint64_t seed);

/**
 * One request at a time from position @p first for @p seconds: submit,
 * wait for the port's completion count to move, fetch the response,
 * submit the next.  Returns each request's submit -> fetched latency and
 * adds the requests run to @p ran.  Past the deadline it still runs up to
 * the next request that is not an insert, so insert/erase pairs stay
 * whole.
 */
Latencies serialLoop(caram::engine::ParallelSearchEngine &eng,
                     const OpSource &src, std::size_t first, Outcome &out,
                     double seconds, uint64_t &ran);

/** Lookups per port the modeled figure replays: enough that the figure
 *  moves by well under 1% from one seed's request sequence to the
 *  next. */
constexpr std::size_t kModeledLookups = 262144;

/**
 * Simulated lookups per second of modeled time: core::TimingEngine
 * (eDRAM 200 MHz, n_mem 6) over the first kModeledLookups lookups of
 * each port against the current tables.  Ports are independent
 * controllers: total lookups over the slowest port's simulated time.
 * The engine must be drained or stopped.
 */
double modeledMsps(caram::core::CaRamSubsystem &sys, unsigned ports,
                   const OpSource &src);

} // namespace perfbench

#endif // CARAM_PERFBENCH_DRIVERS_H_
