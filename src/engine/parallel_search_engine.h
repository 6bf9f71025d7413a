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
 * EngineConfig::resultCacheEntries fronts search dispatch with a
 * lock-free hot-key result cache (result_cache.h): a repeat of a
 * recently answered key replays the cached response -- bit-identical
 * fields, zero modeled bucket accesses.  Invalidation is row-granular:
 * a fill is stamped with the lookup's candidate home-row region
 * coverage, and a mutation bumps only the region counters of the rows
 * it dirtied -- overflow-area writes fold into the spilling key's main
 * regions (Database::noteOverflowMutation); only rebuilds still bump
 * the whole port -- so hot keys survive churn on cold rows while
 * result streams stay
 * bit-identical to the uncached engine on every stream, including
 * mixed mutation streams.
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
 * EngineConfig::rowFanoutMin additionally enables *intra-lookup*
 * parallelism: a lookup whose ternary key duplicates across many home
 * rows is split into home-range shards that idle workers steal from a
 * shared sub-task queue (CaRamSlice::searchRows + shard-local scratch),
 * merged back bit-identically to the serial chain.  The one-port-one-
 * worker ownership rule is preserved: only the port's owning worker
 * touches the database's scratch, counters and overflow area, and it
 * does not move to its next request until every shard completed, so
 * mutations still never overlap a fanned-out lookup.
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
#include "engine/result_cache.h"
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
    /**
     * Insert batch width: a worker executes up to this many
     * *consecutive same-port Insert* requests from its popped batch as
     * one Database::insertBatch call (row-ordered bulk ingest).  The
     * stored table, the response stream and the modeled cycles stay
     * bit-identical to serial execution, and the row-op economy is
     * reported in the engine report's ingest summary.  Any other
     * request or a port change ends the run.  1 disables batching
     * (serial execution, the default); ignored in inline mode
     * (workers == 0), which executes at submit time.  Searches always
     * run one by one behind the prefetch pipeline.
     */
    std::size_t batchSize = 1;

    /**
     * Intra-lookup row fan-out: a Search key whose candidate home set
     * (ternary don't-cares in hash positions duplicate a key across
     * many home rows, paper section 4.2) has at least this many homes
     * is split into up to rowFanoutMaxShards contiguous home-range
     * shards.  The coordinating worker runs one shard itself, posts
     * the rest to a shared sub-task queue idle workers steal from, and
     * merges the shard bests by the serial priority rule -- results
     * stay bit-identical to the serial chain (hit/miss, matched
     * record, LPM winner, bucketsAccessed).  Modeled cycles charge the
     * *slowest shard* instead of the serial chain sum: the shards
     * overlap in modeled time like the paper's multi-bank fetch.
     *
     * 0 disables fan-out unless the CARAM_ROW_FANOUT_MIN environment
     * variable supplies a floor (re-read at each engine's construction
     * -- see resolvedRowFanoutMin(); an explicit nonzero config always
     * wins over the environment, so tests that pin a threshold behave
     * identically under the forced-fan-out CI leg).
     */
    unsigned rowFanoutMin = 0;
    /** Most shards one lookup fans out into (clamped to [1, 32]). */
    unsigned rowFanoutMaxShards = 8;

    /**
     * Hot-key result cache: total entry budget of the front-side
     * ResultCache (see result_cache.h).  A Search whose exact key
     * (value, care, width) was answered since the last mutation that
     * touched any of its candidate home-row regions replays the cached
     * response -- bit-identical fields, zero modeled bucket accesses.
     * Invalidation is row-granular: fills are stamped with the
     * lookup's candidate home-row coverage and an Insert/Erase bumps
     * only the region counters of the rows it actually dirtied --
     * overflow-area writes fold into the spilling key's main-slice
     * regions via Database::noteOverflowMutation (Rebuild still bumps
     * the whole port), so hot keys survive churn on cold rows.
     * nullopt (the default) defers to the
     * CARAM_RESULT_CACHE_ENTRIES environment variable, re-read at each
     * engine's construction like CARAM_ROW_FANOUT_MIN (see
     * resolvedResultCacheEntries()); an explicit value always wins, so
     * 0 pins the cache off even under the forced-cache CI leg.
     */
    std::optional<std::size_t> resultCacheEntries{};
    /** Cache set associativity (clamped to [1, ResultCache::kMaxWays]). */
    unsigned resultCacheWays = 4;

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
    /** Searches served from the result cache (zero modeled cycles). */
    std::atomic<uint64_t> cacheHits{0};
    /** Searches that probed the result cache and fell through. */
    std::atomic<uint64_t> cacheMisses{0};
    /** Generation bumps (one per mutation run on this port). */
    std::atomic<uint64_t> cacheInvalidations{0};
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
    /** Insert runs executed through Database::insertBatch. */
    uint64_t batchedInsertRuns = 0;
    /** Merged row-op accounting of every batched insert run. */
    core::InsertBatchSummary ingest;
    /** Always zero; kept for the benchmark until ROADMAP item 9. */
    core::InsertBatchSummary writerIngest;
    /** Always zero; kept for the benchmark until ROADMAP item 9. */
    uint64_t writerSerialRowFetches = 0;
    /** Always zero; kept for the benchmark until ROADMAP item 9. */
    uint64_t rowsCombined = 0;
    /** Lookups routed through the intra-lookup row fan-out. */
    uint64_t fanoutLookups = 0;
    /** Shards those lookups split into (incl. the coordinator's). */
    uint64_t fanoutShards = 0;
    /** Fan-out-eligible lookups that collapsed to a single shard. */
    uint64_t fanoutSerialFallbacks = 0;
    /** Searches served from the hot-key result cache. */
    uint64_t cacheHits = 0;
    /** Searches that probed the cache and ran the slice search. */
    uint64_t cacheMisses = 0;
    /** Per-port generation bumps charged by mutation runs. */
    uint64_t cacheInvalidations = 0;
    /** Cache invalidations that had to bump a whole port's generation
     *  (rebuilds and full-coverage masks).  Zero under row-local churn
     *  -- including on overflow-area tables, whose writes fold into
     *  the spilling key's main regions. */
    uint64_t cacheWholePortInvalidations = 0;
    /** Cache invalidations served by the precise region path. */
    uint64_t cacheRegionInvalidations = 0;
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
     * with one doorbell ring (more only when the queue fills), and
     * `inflight` and each port's `submitted` count are raised once per
     * batch, before the push.  Returns the number accepted -- all of
     * them unless the engine stops mid-batch, in which case the
     * requests that did not land are rolled back.  Any number of
     * threads may submit concurrently; inline engines (workers == 0)
     * execute and publish each request before the call returns.
     */
    std::size_t submitBatch(std::span<const core::PortRequest> requests);

    /** Submit a database repack (Database::rebuild()); the response
     *  carries ok/hit/record-count as executePortRequest defines.  Like
     *  any non-Search request it flushes the owning worker's batch
     *  runs, so it never reorders against surrounding traffic. */
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

    /** The fan-out threshold this engine resolved at construction
     *  (config value, or CARAM_ROW_FANOUT_MIN read at that moment). */
    unsigned resolvedRowFanoutMin() const { return rowFanoutMin_; }

    /** The result-cache entry budget this engine resolved at
     *  construction (config value, or CARAM_RESULT_CACHE_ENTRIES read
     *  at that moment; 0 = cache off). */
    std::size_t resolvedResultCacheEntries() const
    {
        return resultCache_ ? resultCache_->entryCount() : 0;
    }

    /** Always false; kept for the benchmark until ROADMAP item 9. */
    bool resolvedPrefilter() const { return false; }

    /** Always false; kept for the benchmark until ROADMAP item 9. */
    bool resolvedMaintenance() const { return false; }

    /** Always 0; kept for the benchmark until ROADMAP item 9. */
    unsigned resolvedWriterLanes() const { return 0; }

    /** Aggregate throughput/latency accounting for the run so far. */
    EngineReport report() const;

    /** Upper bound on rowFanoutMaxShards (scratch sizing). */
    static constexpr unsigned kMaxFanoutShards = 32;

  private:
    struct PortState;
    struct Worker;

    struct Job;
    struct FanoutTask;

    void workerMain(unsigned index);
    /** Recompute each port's cached analytic search-bandwidth bound.
     *  Only callable while no worker can be mutating the databases
     *  (construction, the drained window inside drain(), after stop()'s
     *  joins): the bound reads the slices' non-atomic distance
     *  histograms.  O(ports): no row walk. */
    void refreshAnalyticBounds();
    /** Run one popped batch: hint each job's home row a few jobs
     *  ahead, group insert runs, execute, then publish. */
    void processJobs(const std::vector<Job> &batch, unsigned index);
    void execute(const core::PortRequest &request,
                 std::chrono::steady_clock::time_point enqueued,
                 unsigned worker_index);
    /**
     * True when @p key should fan out; fills the worker's fanoutHomes
     * scratch (which executeFanoutSearch then consumes) as a side
     * effect.
     */
    bool fanoutEligible(core::Database &db, const Key &key,
                        Worker &self);
    /** Shard, steal, merge and publish one fan-out lookup.  Expects
     *  the worker's fanoutHomes scratch filled by fanoutEligible(). */
    void executeFanoutSearch(core::Database &db,
                             const core::PortRequest &request,
                             std::chrono::steady_clock::time_point
                                 enqueued,
                             unsigned worker_index);
    /** Match one shard and arrive at its lookup's latch. */
    void runFanoutTask(const FanoutTask &task);
    /** Wake one parked worker / all parked workers (doorbell). */
    void ring(unsigned worker_index);
    void ringAll();
    /** Execute @p count same-port Insert jobs as one bulk ingest. */
    void executeInsertRun(const Job *jobs, std::size_t count,
                          unsigned worker_index);
    /** Probe the result cache for a Search on an Active database;
     *  counts the hit/miss and fills @p out on a hit. */
    bool probeCache(const core::PortRequest &request,
                    core::SearchResult &out);
    /** Finish a cached search result: bit-identical response fields,
     *  zero modeled cycles (the paper's row activations never happen). */
    void finishCached(Worker &self, const core::PortRequest &request,
                      const core::SearchResult &cached,
                      std::chrono::steady_clock::time_point enqueued);
    /** Invalidate @p port's cached entries after a mutation run
     *  executed: region-granular when the mutation's dirty-row mask
     *  allows it, whole-port otherwise (@p wholePort, used by Rebuild
     *  and bulk loads).  The owning worker executes the port's requests
     *  one after another, so bumping after the mutation is safe: no
     *  probe of this port can run in between. */
    void invalidateCache(unsigned port, bool wholePort);
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
    /** Resolved fan-out threshold (config, or CARAM_ROW_FANOUT_MIN). */
    unsigned rowFanoutMin_ = 0;
    /** Hot-key result cache (null = off; see resultCacheEntries). */
    std::unique_ptr<ResultCache> resultCache_;
    /** Shared shard sub-task queue the workers steal from. */
    std::unique_ptr<sim::ConcurrentBoundedQueue<FanoutTask>> fanoutTasks;
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
