#ifndef CARAM_ENGINE_PARALLEL_SEARCH_ENGINE_H_
#define CARAM_ENGINE_PARALLEL_SEARCH_ENGINE_H_

/**
 * @file
 * A concurrent lookup engine over a CaRamSubsystem.
 *
 * The paper's bandwidth argument (section 3.4, B = N_slice / n_mem *
 * f_clk) rests on independent banks serving lookups simultaneously;
 * CaRamSubsystem::process() drains every request queue on one thread
 * and so can neither demonstrate nor measure that concurrency.  The
 * ParallelSearchEngine shards the subsystem's virtual ports across N
 * worker threads -- port p belongs to worker p % N, so each database
 * is touched by exactly one worker and needs no locking -- with a
 * thread-safe bounded request queue per worker (backpressure-aware),
 * per-port FIFO result streams, and per-port latency/throughput
 * instrumentation.
 *
 * Throughput is accounted in *modeled* memory cycles: each worker is an
 * independent input controller whose lookups occupy its bank for
 * max(1, bucketsAccessed) * n_mem cycles, mirroring TimingEngine's
 * model.  Aggregate modeled throughput uses the makespan (the slowest
 * worker); the serial reference uses the sum (one controller doing
 * everything), which is exactly what process() models.  Host threads
 * execute the searches genuinely concurrently; the modeled numbers stay
 * deterministic for a given request stream regardless of host core
 * count or scheduling.
 *
 * With workers == 0 the engine runs requests inline at submit time on
 * the calling thread -- a deterministic single-threaded fallback with
 * identical result streams and modeled accounting, used by tier-1
 * tests.
 *
 * One thread owns each table: the port's worker executes every request
 * of that port -- searches, inserts, erases and rebuilds -- in
 * submission order, so independent ports proceed in
 * parallel on their own workers while no table is ever read or
 * written by two threads at once (the shared-nothing arrangement of
 * the paper's section 3.4, where each slice answers its own queue).
 *
 * A worker runs each popped batch behind a prefetch pipeline: before
 * job k executes, the home row of job k + 4 is requested
 * (Database::prefetchHome), so the row misses of a batch overlap, as
 * the paper's banks overlap their row fetches, instead of queueing
 * one behind another.  The hint changes no state: responses,
 * bucketsAccessed and modeled cycles are those of unhinted execution.
 *
 * Every request runs one way: its port's worker pops it, executes it
 * with core::executePortRequest, charges the modeled cycles and
 * publishes the response.  A worker has one source of work, its own
 * queue, so it sleeps in that queue's popBatch() between batches.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "core/subsystem.h"
#include "mem/timing.h"
#include "sim/concurrent_queue.h"

namespace caram::engine {

/** Engine configuration. */
struct EngineConfig
{
    /** Worker threads; 0 = deterministic inline execution. */
    unsigned workers = 1;
    /** Depth of each worker's request queue (backpressure bound). */
    std::size_t queueCapacity = 1024;
    /** Memory timing used for the modeled cycle accounting. */
    mem::MemTiming timing = mem::MemTiming::embeddedDram();
    /** Max requests a worker pops per lock acquisition. */
    std::size_t drainBatch = 64;

    /** Ignored; kept for the benchmark until ROADMAP item 9. */
    std::size_t resultCacheEntries = 0;
};

/**
 * Per-port instrumentation.  The counters are atomic because they are
 * written from the producer (`submitted`) and the port's owning worker,
 * and read live by report()/portStats() -- reading them mid-run is
 * race-free and each value is individually consistent.  The owner
 * publishes its finished responses once per popped batch, so
 * `completed` advances by whole runs of a port's requests, and every
 * response it counts is already in the port's result stream
 * (fetchResult() returns it).  The latency/AMAL aggregates below the
 * counters are NOT atomic: the owner is their only writer, and they
 * are only meaningful once the engine is drained.
 */
struct PortStats
{
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> errors{0}; ///< responses with ok == false
    /** Wall-clock enqueue -> result latency, microseconds: from the
     *  submit to the publish that made the response fetchable.  Read
     *  only after drain(). */
    Summary latencyUs;
    /** The same latencies, log2-binned (bin = floor(log2(1 + us))).
     *  Every bin a 64-bit nanosecond latency can reach exists from
     *  construction, so publishing never grows it. */
    Histogram latencyLog2Us;
    /** Buckets accessed per search (the per-request AMAL sample). */
    Histogram bucketsAccessed;
    /** Modeled busy cycles this port's requests cost its worker. */
    std::atomic<uint64_t> modeledCycles{0};
};

/** Aggregate numbers for one engine run (between start and drain). */
struct EngineReport
{
    uint64_t completed = 0;
    unsigned workers = 0;
    /** Modeled aggregate throughput, makespan over the workers. */
    double modeledMsps = 0.0;
    /** Modeled throughput of the same stream on one controller. */
    double modeledSerialMsps = 0.0;
    /** modeledMsps / modeledSerialMsps. */
    double modeledSpeedup = 0.0;
    /** Sum of Database::searchBandwidthMsps over the served ports.
     *  Sampled at quiesced points (construction, drain(), stop()) --
     *  not live -- because the bound reads the slices' non-atomic
     *  distance histograms, which the owning workers mutate; report() itself stays safe to
     *  call any time.  Inline engines (workers == 0) compute it live:
     *  the caller is the only executing thread. */
    double analyticBoundMsps = 0.0;
    /** Host wall-clock throughput (start() .. drain()), Msps. */
    double wallMsps = 0.0;
    double wallSeconds = 0.0;
    /** Always zero; kept for the benchmark until ROADMAP item 9. */
    core::InsertBatchSummary writerIngest;
    /** Always zero; kept for the benchmark until ROADMAP item 9. */
    uint64_t writerSerialRowFetches = 0;
    /** Always zero; kept for the benchmark until ROADMAP item 9. */
    uint64_t rowsCombined = 0;
    /** Always zero; kept for the benchmark until ROADMAP item 9. */
    uint64_t cacheHits = 0;
    /** Always zero; kept for the benchmark until ROADMAP item 9. */
    uint64_t cacheMisses = 0;
    /** Always zero; kept for the benchmark until ROADMAP item 9. */
    uint64_t cacheInvalidations = 0;
};

/** Shards a CaRamSubsystem's ports across worker threads. */
class ParallelSearchEngine
{
  public:
    /** The subsystem must outlive the engine and must not be mutated
     *  through other paths while the engine is running. */
    explicit ParallelSearchEngine(core::CaRamSubsystem &subsystem,
                                  EngineConfig config = {});
    ~ParallelSearchEngine();

    ParallelSearchEngine(const ParallelSearchEngine &) = delete;
    ParallelSearchEngine &operator=(const ParallelSearchEngine &) =
        delete;

    /** Worker that owns @p port. */
    unsigned workerOf(unsigned port) const;

    /** Spawn the worker threads (no-op when workers == 0 or already
     *  started). */
    void start();

    /** Non-blocking submit; false when the owning worker's queue is
     *  full (backpressure) or the engine is stopped. */
    bool trySubmit(unsigned port, const Key &key, uint64_t tag);

    /** Blocking submit: waits for queue space.  False only when the
     *  engine was stopped. */
    bool submit(unsigned port, const Key &key, uint64_t tag);

    /** Submit a full request (insert/erase travel this way too): a
     *  batch of one. */
    bool submitRequest(const core::PortRequest &request);

    /**
     * Submit a batch, blocking on backpressure, preserving each port's
     * order.  The batch crosses to the workers once, not once per
     * request: its requests are grouped by owning worker and each
     * group lands in that worker's queue under one lock acquisition
     * (more only when the queue fills), and `inflight` and each port's
     * `submitted` count are raised once per batch, before the push.
     * Returns the number accepted -- all of them unless the engine
     * stops mid-batch, in which case the requests that did not land
     * are rolled back.  Any number of threads may submit concurrently;
     * inline engines (workers == 0) execute and publish each request
     * before the call returns.
     */
    std::size_t submitBatch(std::span<const core::PortRequest> requests);

    /** Submit a database repack (Database::rebuild()); the response
     *  carries ok/hit/record-count as executePortRequest defines.  It
     *  runs in its port's submission order, like every request. */
    bool submitRebuild(unsigned port, uint64_t tag);

    /**
     * Construct @p port's table through the row-ordered bulk ingest
     * pipeline, bypassing the request protocol (no responses, no
     * stats).  Only valid while the workers are not running -- a
     * running port's database belongs to its worker thread.  Returns
     * the ingest summary (row-op economy vs record-at-a-time).
     */
    core::InsertBatchSummary bulkLoad(
        unsigned port, std::span<const core::Record> records,
        core::InsertOutcome *outcomes = nullptr,
        const int *priorities = nullptr);

    /** Block until every submitted request has produced a result. */
    void drain();

    /** Drain, close the queues and join the workers. */
    void stop();

    /** Pop the next result of @p port (per-port FIFO order). */
    std::optional<core::PortResponse> fetchResult(unsigned port);

    const PortStats &portStats(unsigned port) const;

    /** Always 0; kept for the benchmark until ROADMAP item 9. */
    std::size_t resolvedResultCacheEntries() const { return 0; }

    /** Always false; kept for the benchmark until ROADMAP item 9. */
    bool resolvedPrefilter() const { return false; }

    /** Always false; kept for the benchmark until ROADMAP item 9. */
    bool resolvedMaintenance() const { return false; }

    /** Always 0; kept for the benchmark until ROADMAP item 9. */
    unsigned resolvedWriterLanes() const { return 0; }

    /** Aggregate throughput/latency accounting for the run so far. */
    EngineReport report() const;

  private:
    struct PortState;
    struct Worker;
    struct Job;

    /** Pop batches off the worker's own queue until it is closed and
     *  empty; the worker sleeps inside popBatch() while it is empty. */
    void workerMain(unsigned index);
    /** Recompute each port's cached analytic search-bandwidth bound.
     *  Only callable while no worker can be mutating the databases
     *  (construction, the drained window inside drain(), after stop()'s
     *  joins): the bound reads the slices' non-atomic distance
     *  histograms.  O(ports): no row walk. */
    void refreshAnalyticBounds();
    /** Run one popped batch: hint each job's home row a few jobs
     *  ahead, execute, then publish. */
    void processJobs(const std::vector<Job> &batch, unsigned index);
    /** Execute one request and charge its modeled cycles -- the
     *  engine's one modeled charge site. */
    void execute(const core::PortRequest &request,
                 std::chrono::steady_clock::time_point enqueued,
                 unsigned worker_index);
    /** Buffer one finished response on the executing thread until its
     *  next publish(). */
    void finish(Worker &self, core::PortResponse resp,
                std::chrono::steady_clock::time_point enqueued);
    /**
     * Publish @p self's buffered responses: per run of one port's
     * responses, one result-mutex acquisition and one `completed`
     * release-add; per call, one clock read, one end-stamp update and
     * one `inflight` subtraction covering every request executed since
     * the last publish.  Called once per
     * popped batch and after each inline request.
     */
    void publish(Worker &self);
    /** Retire @p n in-flight requests (waking drain() at zero). */
    void noteCompletion(uint64_t n);

    core::CaRamSubsystem *sys;
    EngineConfig cfg;
    unsigned workerCount;  ///< sharding groups (>= 1 even when inline)
    std::vector<std::unique_ptr<PortState>> ports;
    /** One per worker thread (one in inline mode). */
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::thread> threads;
    bool running = false;
    /** Atomic: producers on any thread read it while stop() sets it. */
    std::atomic<bool> stopped{false};

    std::atomic<uint64_t> inflight{0};
    std::mutex drainMutex;
    std::condition_variable drainCv;

    std::chrono::steady_clock::time_point wallStart;
    std::atomic<uint64_t> wallEndNs{0};
};

} // namespace caram::engine

#endif // CARAM_ENGINE_PARALLEL_SEARCH_ENGINE_H_
