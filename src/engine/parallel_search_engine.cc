#include "engine/parallel_search_engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <optional>

#include "common/logging.h"
#include "common/strings.h"
#include "sim/completion_latch.h"

namespace caram::engine {

namespace {

/** CARAM_ROW_FANOUT_MIN parsed fresh on every call (i.e. at each
 *  engine's construction) -- a function-local cache would pin whatever
 *  value the first engine in the process saw and silently ignore later
 *  environment changes, which broke tests that build engines under
 *  different settings.  nullopt = unset/garbage (garbage warns once per
 *  process).  The forced-fan-out CI leg sets it to 1 so every engine in
 *  the test suite routes lookups through the shard scheduler. */
std::optional<unsigned>
envRowFanoutMin()
{
    const char *env = std::getenv("CARAM_ROW_FANOUT_MIN");
    if (!env || !*env)
        return std::nullopt;
    char *end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0') {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn(strprintf("CARAM_ROW_FANOUT_MIN=%s is not a number; "
                           "fan-out stays config-controlled",
                           env));
        return std::nullopt;
    }
    return static_cast<unsigned>(v);
}

/** CARAM_RESULT_CACHE_ENTRIES, parsed fresh on every call like
 *  CARAM_ROW_FANOUT_MIN above.  The forced-cache CI leg sets it so
 *  every engine whose config leaves resultCacheEntries unset runs the
 *  whole suite with the hot-key cache on. */
std::optional<std::size_t>
envResultCacheEntries()
{
    const char *env = std::getenv("CARAM_RESULT_CACHE_ENTRIES");
    if (!env || !*env)
        return std::nullopt;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0') {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn(strprintf("CARAM_RESULT_CACHE_ENTRIES=%s is not a "
                           "number; result cache stays "
                           "config-controlled",
                           env));
        return std::nullopt;
    }
    return static_cast<std::size_t>(v);
}

/** CARAM_PREFILTER, parsed fresh on every call like the knobs above.
 *  The forced-filter CI leg sets it to 1 so every engine whose config
 *  leaves `prefilter` unset runs the whole suite consulting the
 *  per-row pre-filter. */
std::optional<bool>
envPrefilter()
{
    const char *env = std::getenv("CARAM_PREFILTER");
    if (!env || !*env)
        return std::nullopt;
    char *end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0' || v > 1) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn(strprintf("CARAM_PREFILTER=%s is not 0 or 1; the "
                           "pre-filter stays config-controlled",
                           env));
        return std::nullopt;
    }
    return v != 0;
}

} // namespace

/** A request travelling through a worker queue, stamped at enqueue. */
struct ParallelSearchEngine::Job
{
    core::PortRequest request;
    std::chrono::steady_clock::time_point enqueued;
};

/**
 * One shard of a fanned-out lookup: match @p count candidate home
 * chains starting at @p homes against the coordinator's packed key,
 * deposit the shard-best into @p out, and arrive at @p latch.  All
 * pointed-to state lives in the coordinating worker's scratch, which
 * stays pinned until the latch completes; the queue's mutex publishes
 * it to stealing workers.
 */
struct ParallelSearchEngine::FanoutTask
{
    core::CaRamSlice *slice;
    const core::MatchProcessor::PackedKey *packed;
    const uint64_t *homes;
    unsigned count;
    core::SearchResult *out;
    sim::CompletionLatch *latch;
};

/** Per-port result stream and instrumentation. */
struct ParallelSearchEngine::PortState
{
    PortState()
    {
        // Size the log2 latency histogram for every bin up front (see
        // PortStats::latencyLog2Us) -- weight 0 adds no observation.
        stats.latencyLog2Us.add(63, 0);
    }

    /** Result stream: responses [resultHead, results.size()) are
     *  published and not yet fetched.  A publish drops the fetched
     *  prefix once it is at least half the vector, so the storage is
     *  reused (no steady-state allocation) once the consumer keeps up. */
    std::mutex resultMutex;
    std::vector<core::PortResponse> results;
    std::size_t resultHead = 0;
    PortStats stats;
    /** Cached Database::searchBandwidthMsps (bit-cast double), written
     *  by refreshAnalyticBounds() at quiesced points and read by
     *  report() -- the live computation would read the slices'
     *  non-atomic distance histograms while the owning worker mutates
     *  them. */
    std::atomic<uint64_t> analyticBoundBits{0};
};

/** One worker: its request queue and its private modeled clock. */
struct ParallelSearchEngine::Worker
{
    explicit Worker(std::size_t capacity) : queue(capacity) {}
    sim::ConcurrentBoundedQueue<Job> queue;
    /** Busy cycles of this worker's modeled input controller.  Atomic
     *  (like the run counters below) because report() sums them while
     *  the run is still in flight. */
    std::atomic<uint64_t> modeledCycles{0};
    /** Bulk-ingest scratch (sized once, reused across runs). */
    std::vector<core::Record> records;
    std::vector<int> priorities;
    std::vector<core::InsertOutcome> outcomes;
    /** Merged row-op accounting of this worker's insert runs, under
     *  ingestMutex (a struct of counters cannot be read atomically). */
    std::mutex ingestMutex;
    core::InsertBatchSummary ingest;
    /** Run counter (EngineReport). */
    std::atomic<uint64_t> batchedInsertRuns{0};
    /** Result-cache stamping scratch: candidate-home scratch for
     *  Database::searchRegionMask. */
    std::vector<uint64_t> maskHomes;
    /** Fan-out coordinator scratch: the packed key every shard reads,
     *  the candidate home rows, and one result slot per shard.  All
     *  pre-sized after the first fan-out, so steady-state fan-out
     *  lookups allocate nothing -- and strictly worker-local, never
     *  the slice's own scratch (CaRamSlice's single-owner rule). */
    core::MatchProcessor::PackedKey fanoutPacked;
    std::vector<uint64_t> fanoutHomes;
    std::array<core::SearchResult, kMaxFanoutShards> shardResults;
    sim::CompletionLatch fanoutLatch;
    /** Fan-out counters (EngineReport). */
    std::atomic<uint64_t> fanoutLookups{0};
    std::atomic<uint64_t> fanoutShards{0};
    std::atomic<uint64_t> fanoutSerialFallbacks{0};
    /** Doorbell: the worker parks here when both its request queue and
     *  the shared shard queue are empty; producers ring after pushing. */
    std::mutex bellMutex;
    std::condition_variable bell;
    /** Per-run publish buffer: responses finished since the last
     *  publish(), in execution order, and the requests executed since
     *  then.  Reused, so steady-state publishing allocates nothing. */
    struct Finished
    {
        core::PortResponse resp;
        std::chrono::steady_clock::time_point enqueued;
    };
    std::vector<Finished> finished;
    uint64_t executed = 0;
};

ParallelSearchEngine::ParallelSearchEngine(core::CaRamSubsystem &subsystem,
                                           EngineConfig config)
    : sys(&subsystem), cfg(config),
      workerCount(std::max(1u, cfg.workers))
{
    if (sys->databaseCount() == 0)
        fatal("parallel search engine needs at least one database");
    if (cfg.queueCapacity == 0)
        fatal("engine queue capacity must be nonzero");
    if (cfg.drainBatch == 0)
        cfg.drainBatch = 1;
    cfg.rowFanoutMaxShards =
        std::clamp(cfg.rowFanoutMaxShards, 1u, kMaxFanoutShards);
    rowFanoutMin_ = cfg.rowFanoutMin;
    if (rowFanoutMin_ == 0) {
        if (const auto env = envRowFanoutMin())
            rowFanoutMin_ = *env;
    }
    // Result cache: an explicit config value (including an explicit 0,
    // which pins the cache off) always wins over the environment.
    std::size_t cache_entries = cfg.resultCacheEntries.value_or(0);
    if (!cfg.resultCacheEntries.has_value()) {
        if (const auto env = envResultCacheEntries())
            cache_entries = *env;
    }
    if (cache_entries > 0) {
        resultCache_ = std::make_unique<ResultCache>(
            cache_entries, cfg.resultCacheWays,
            static_cast<unsigned>(sys->databaseCount()));
    }
    // Pre-filter: an explicit config value (including an explicit
    // false, which pins the filter off) always wins over the
    // environment.  The flag lives on the slices themselves.
    prefilter_ = cfg.prefilter.value_or(false);
    if (!cfg.prefilter.has_value()) {
        if (const auto env = envPrefilter())
            prefilter_ = *env;
    }
    for (std::size_t p = 0; p < sys->databaseCount(); ++p) {
        sys->database(static_cast<unsigned>(p))
            .setPrefilterEnabled(prefilter_);
    }
    fanoutTasks = std::make_unique<sim::ConcurrentBoundedQueue<FanoutTask>>(
        std::max<std::size_t>(16,
                              std::size_t{workerCount} *
                                  cfg.rowFanoutMaxShards));
    for (std::size_t p = 0; p < sys->databaseCount(); ++p)
        ports.push_back(std::make_unique<PortState>());
    refreshAnalyticBounds(); // pre-thread: nothing can be mutating yet
    for (unsigned w = 0; w < workerCount; ++w)
        workers.push_back(std::make_unique<Worker>(cfg.queueCapacity));
    wallStart = std::chrono::steady_clock::now();
}

ParallelSearchEngine::~ParallelSearchEngine()
{
    stop();
}

unsigned
ParallelSearchEngine::workerOf(unsigned port) const
{
    return port % workerCount;
}

void
ParallelSearchEngine::start()
{
    if (running || stopped || cfg.workers == 0)
        return;
    running = true;
    wallStart = std::chrono::steady_clock::now();
    for (unsigned w = 0; w < cfg.workers; ++w)
        threads.emplace_back([this, w] { workerMain(w); });
}

void
ParallelSearchEngine::finish(Worker &self, core::PortResponse resp,
                             std::chrono::steady_clock::time_point enqueued)
{
    self.finished.push_back(Worker::Finished{std::move(resp), enqueued});
}

void
ParallelSearchEngine::publish(Worker &self)
{
    if (!self.finished.empty()) {
        const auto now = std::chrono::steady_clock::now();
        // Push the wall-clock end stamp (monotonic max -- publishes
        // from different threads finish out of order) *before*
        // advancing the completion counters: report() reads `completed`
        // first, so every completion it counts has already published
        // its end stamp, and a mid-run wallMsps can understate but
        // never inflate the throughput.
        const uint64_t end_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - wallStart)
                .count());
        uint64_t prev = wallEndNs.load(std::memory_order_relaxed);
        while (prev < end_ns &&
               !wallEndNs.compare_exchange_weak(
                   prev, end_ns, std::memory_order_release,
                   std::memory_order_relaxed)) {
        }
        const std::size_t n = self.finished.size();
        for (std::size_t i = 0; i < n;) {
            const unsigned port_no = self.finished[i].resp.port;
            std::size_t j = i;
            while (j < n && self.finished[j].resp.port == port_no)
                ++j;
            // One run of this port's responses.  This thread owns the
            // port, so its stats aggregates update unlocked.
            PortState &port = *ports[port_no];
            uint64_t hits = 0;
            uint64_t errors = 0;
            for (std::size_t k = i; k < j; ++k) {
                const Worker::Finished &f = self.finished[k];
                if (f.resp.op == core::PortOp::Search)
                    port.stats.bucketsAccessed.add(f.resp.bucketsAccessed);
                const uint64_t ns = static_cast<uint64_t>(std::max<int64_t>(
                    0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                           now - f.enqueued)
                           .count()));
                port.stats.latencyUs.add(static_cast<double>(ns) / 1e3);
                // floor(log2(1 + us)) == bit_width(floor(1 + us)) - 1.
                port.stats.latencyLog2Us.add(
                    std::bit_width((ns + 1000) / 1000) - 1);
                hits += f.resp.hit ? 1 : 0;
                errors += f.resp.ok ? 0 : 1;
            }
            {
                std::lock_guard<std::mutex> lock(port.resultMutex);
                if (port.resultHead * 2 >= port.results.size()) {
                    port.results.erase(
                        port.results.begin(),
                        port.results.begin() +
                            static_cast<std::ptrdiff_t>(port.resultHead));
                    port.resultHead = 0;
                }
                for (std::size_t k = i; k < j; ++k)
                    port.results.push_back(std::move(self.finished[k].resp));
            }
            if (hits > 0)
                port.stats.hits.fetch_add(hits, std::memory_order_relaxed);
            if (errors > 0)
                port.stats.errors.fetch_add(errors,
                                            std::memory_order_relaxed);
            port.stats.completed.fetch_add(j - i, std::memory_order_release);
            i = j;
        }
        self.finished.clear();
    }
    // Retire the executed requests only now that their responses are
    // fetchable: drain() returning means every result is in its stream.
    if (self.executed > 0) {
        noteCompletion(self.executed);
        self.executed = 0;
    }
}

bool
ParallelSearchEngine::fanoutEligible(core::Database &db, const Key &key,
                                     Worker &self)
{
    if (rowFanoutMin_ == 0)
        return false;
    // Fully specified keys have exactly one candidate home: only a
    // forced threshold of <= 1 routes them through the shard scheduler
    // (single-shard coverage of the fan-out machinery).
    if (rowFanoutMin_ > 1 && key.fullySpecified())
        return false;
    if (key.bits() != db.slice().config().logicalKeyBits)
        return false; // let the serial path report the width mismatch
    db.slice().candidateHomes(key, self.fanoutHomes);
    // Shard pruning: homes whose whole chain the filter proves empty
    // never become sub-tasks (they contribute zero accesses either
    // way, so the merged result stays bit-identical to the serial
    // filtered walk).  A lookup pruned below the threshold falls back
    // to the serial path -- which skips the same rows.
    db.slice().prefilterPruneHomes(key, self.fanoutHomes);
    return self.fanoutHomes.size() >= rowFanoutMin_;
}

void
ParallelSearchEngine::runFanoutTask(const FanoutTask &task)
{
    *task.out = task.slice->searchRows(*task.packed, task.homes,
                                       task.count);
    task.latch->arrive();
}

void
ParallelSearchEngine::executeFanoutSearch(
    core::Database &db, const core::PortRequest &request,
    std::chrono::steady_clock::time_point enqueued, unsigned worker_index)
{
    Worker &self = *workers[worker_index];
    core::CaRamSlice &sl = db.slice();
    // Stamp capture before any shard touches the table.  The region
    // mask is recomputed from the FULL candidate home set -- the
    // pruned fanoutHomes scratch is not enough, because a pre-filter-
    // pruned home that later gains a matching record must still
    // invalidate this entry.
    uint64_t cache_mask = 0;
    uint64_t cache_stamp = 0;
    if (resultCache_) {
        cache_mask = db.searchRegionMask(request.key, self.maskHomes);
        cache_stamp =
            resultCache_->captureStamp(request.port, cache_mask);
    }
    const auto nhomes = static_cast<unsigned>(self.fanoutHomes.size());
    const unsigned nshards = std::min(cfg.rowFanoutMaxShards, nhomes);
    self.fanoutLookups.fetch_add(1, std::memory_order_relaxed);
    if (nshards <= 1)
        self.fanoutSerialFallbacks.fetch_add(1,
                                             std::memory_order_relaxed);
    else
        self.fanoutShards.fetch_add(nshards, std::memory_order_relaxed);

    sl.packSearchKey(request.key, self.fanoutPacked);
    self.fanoutLatch.reset(nshards);
    const uint64_t *homes = self.fanoutHomes.data();
    const unsigned base = nhomes / nshards;
    const unsigned rem = nhomes % nshards;
    // Shard 0 (the first home range) runs on this thread; the rest go
    // to the shared sub-task queue for idle workers to steal.  A full
    // queue just means this shard runs here too -- the push never
    // blocks, so fan-out cannot deadlock.
    const unsigned local_count = base + (0 < rem ? 1 : 0);
    unsigned offset = local_count;
    for (unsigned s = 1; s < nshards; ++s) {
        const unsigned count = base + (s < rem ? 1 : 0);
        const FanoutTask task{&sl,
                              &self.fanoutPacked,
                              homes + offset,
                              count,
                              &self.shardResults[s],
                              &self.fanoutLatch};
        offset += count;
        if (cfg.workers == 0 || !fanoutTasks->tryPush(task))
            runFanoutTask(task);
    }
    if (nshards > 1 && cfg.workers != 0)
        ringAll();
    self.shardResults[0] =
        sl.searchRows(self.fanoutPacked, homes, local_count);
    self.fanoutLatch.arrive();
    // Help-first join: while our shards are outstanding, run queued
    // shard tasks (ours or another coordinator's) instead of blocking.
    // Shard tasks never block or fan out themselves, so every queued
    // task makes progress even when all workers coordinate lookups at
    // once; once the queue is empty our remaining shards are already
    // running on other workers and the wait is finite.
    while (!self.fanoutLatch.tryWait()) {
        if (const auto task = fanoutTasks->tryPop())
            runFanoutTask(*task);
        else
            self.fanoutLatch.wait();
    }

    core::SearchResult merged = core::CaRamSlice::mergeShardResults(
        self.shardResults.data(), nshards, sl.config().lpm);
    // The slice's counters advance exactly as one serial search()
    // reporting this many accesses would (we are the port's owning
    // worker, so the single-owner rule holds).
    sl.noteFanoutSearch(merged.bucketsAccessed);
    uint64_t slowest = 0;
    for (unsigned s = 0; s < nshards; ++s)
        slowest = std::max<uint64_t>(slowest,
                                     self.shardResults[s].bucketsAccessed);
    const uint64_t overflow_fetches =
        db.mergeOverflowResult(request.key, merged);
    if (resultCache_)
        resultCache_->fill(request.port, request.key, merged,
                           cache_stamp, cache_mask);

    // Modeled cost: the shards fetch from independent banks
    // simultaneously (the paper's multi-bank overlap), so the lookup
    // occupies the port for the *slowest* shard's chain -- including
    // shards the serial early exit would have skipped, because the
    // hardware dispatches every bank before any verdict is known.  A
    // parallel overflow area overlaps the same way.
    const uint64_t accesses =
        std::max<uint64_t>(1, std::max(slowest, overflow_fetches));
    const uint64_t cycles =
        accesses * std::max(1u, cfg.timing.minCycleGap);
    PortState &port = *ports[request.port];
    port.stats.modeledCycles.fetch_add(cycles, std::memory_order_relaxed);
    self.modeledCycles.fetch_add(cycles, std::memory_order_relaxed);

    core::PortResponse resp;
    resp.tag = request.tag;
    resp.port = request.port;
    resp.op = core::PortOp::Search;
    resp.hit = merged.hit;
    resp.data = merged.data;
    resp.key = merged.key;
    resp.bucketsAccessed = merged.bucketsAccessed;
    finish(self, std::move(resp), enqueued);
}

bool
ParallelSearchEngine::probeCache(const core::PortRequest &request,
                                 core::SearchResult &out)
{
    if (!resultCache_)
        return false;
    PortStats &stats = ports[request.port]->stats;
    if (resultCache_->probe(request.port, request.key, out)) {
        stats.cacheHits.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    stats.cacheMisses.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void
ParallelSearchEngine::finishCached(
    Worker &self, const core::PortRequest &request,
    const core::SearchResult &cached,
    std::chrono::steady_clock::time_point enqueued)
{
    // Zero modeled cycles: the cached reply activates no rows, so the
    // port's bank is never occupied -- this is the entire throughput
    // claim of the hot-key cache.  The response fields (including the
    // replayed bucketsAccessed, which keeps the AMAL histogram
    // identical to the uncached engine's) are bit-identical to what
    // the slice search would have produced on the unmutated table.
    core::PortResponse resp;
    resp.tag = request.tag;
    resp.port = request.port;
    resp.op = core::PortOp::Search;
    resp.hit = cached.hit;
    resp.data = cached.data;
    resp.key = cached.key;
    resp.bucketsAccessed = cached.bucketsAccessed;
    finish(self, std::move(resp), enqueued);
}

void
ParallelSearchEngine::invalidateCache(unsigned port, bool wholePort)
{
    if (!resultCache_)
        return;
    // The mutation already executed: drain the rows it dirtied and
    // bump exactly their regions (rebuilds and bulk loads bump the
    // whole port -- a repack moves records between rows wholesale, so
    // even an untouched region's cached bucketsAccessed could change).
    // Bumping *after* the mutation is safe because one thread executes
    // the port's requests in order, so no probe of this port can run
    // between the mutation and the bump.
    // The dirty mask is drained even on the whole-port path so stale
    // bits never leak into a later mutation's bump.
    const uint64_t dirty = sys->database(port).takeDirtyRegionMask();
    if (wholePort)
        resultCache_->invalidate(port);
    else
        resultCache_->invalidateRegions(port, dirty);
    ports[port]->stats.cacheInvalidations.fetch_add(
        1, std::memory_order_relaxed);
}

void
ParallelSearchEngine::execute(
    const core::PortRequest &request,
    std::chrono::steady_clock::time_point enqueued, unsigned worker_index)
{
    if (request.op == core::PortOp::Search) {
        if (resultCache_ || rowFanoutMin_ > 0) {
            core::Database &db = sys->database(request.port);
            if (db.powerState() == core::PowerState::Active) {
                // Cache probe first: a hit short-circuits the slice
                // search *and* the fan-out machinery.
                core::SearchResult cached;
                if (probeCache(request, cached)) {
                    finishCached(*workers[worker_index], request, cached,
                                 enqueued);
                    return;
                }
                if (rowFanoutMin_ > 0 &&
                    fanoutEligible(db, request.key,
                                   *workers[worker_index])) {
                    executeFanoutSearch(db, request, enqueued,
                                        worker_index);
                    return;
                }
            }
        }
    }
    // Stamp capture *before* the search runs: a mutation slipping in
    // between (impossible on the engine's serialized ports, but the
    // discipline is what the cache's coherence argument rests on)
    // would make the fill below unservable rather than stale.  The
    // region mask covers the lookup's full candidate home set; a
    // retained database or a width-mismatched key never reaches the
    // fill (resp.ok is false), so the mask is only computed when the
    // search will actually run.
    uint64_t cache_mask = 0;
    uint64_t cache_stamp = 0;
    core::Database &req_db = sys->database(request.port);
    if (resultCache_ && request.op == core::PortOp::Search &&
        req_db.powerState() == core::PowerState::Active &&
        request.key.bits() ==
            req_db.slice().config().logicalKeyBits) {
        cache_mask = req_db.searchRegionMask(
            request.key, workers[worker_index]->maskHomes);
        cache_stamp =
            resultCache_->captureStamp(request.port, cache_mask);
    }
    core::PortResponse resp = core::executePortRequest(req_db, request);
    if (request.op != core::PortOp::Search) {
        // Row-granular coherence: the mutation ran, its dirty rows are
        // known -- bump exactly their regions (whole port for Rebuild:
        // a repack can change any cached entry's bucketsAccessed).
        invalidateCache(request.port,
                        request.op == core::PortOp::Rebuild);
    } else if (resultCache_ && resp.ok) {
        core::SearchResult r;
        r.hit = resp.hit;
        r.data = resp.data;
        r.key = resp.key;
        r.bucketsAccessed = resp.bucketsAccessed;
        resultCache_->fill(request.port, request.key, r, cache_stamp,
                           cache_mask);
    }

    // Modeled cost: the lookup occupies this worker's bank for n_mem
    // cycles per bucket accessed (probe chains are sequential); every
    // request costs at least one access slot.
    const uint64_t accesses = std::max(1u, resp.bucketsAccessed);
    const uint64_t cycles =
        accesses * std::max(1u, cfg.timing.minCycleGap);

    PortState &port = *ports[request.port];
    port.stats.modeledCycles.fetch_add(cycles, std::memory_order_relaxed);
    workers[worker_index]->modeledCycles.fetch_add(
        cycles, std::memory_order_relaxed);

    finish(*workers[worker_index], std::move(resp), enqueued);
}

void
ParallelSearchEngine::executeInsertRun(const Job *jobs, std::size_t count,
                                       unsigned worker_index)
{
    const unsigned port_no = jobs[0].request.port;
    core::Database &db = sys->database(port_no);
    if (db.powerState() != core::PowerState::Active) {
        // Retained database: the serial path produces the per-request
        // error responses.
        for (std::size_t i = 0; i < count; ++i)
            execute(jobs[i].request, jobs[i].enqueued, worker_index);
        return;
    }

    Worker &self = *workers[worker_index];
    self.records.clear();
    self.priorities.clear();
    for (std::size_t i = 0; i < count; ++i) {
        self.records.push_back(
            core::Record{jobs[i].request.key, jobs[i].request.data});
        self.priorities.push_back(jobs[i].request.priority);
    }
    if (self.outcomes.size() < count)
        self.outcomes.resize(count);
    const core::InsertBatchSummary sum = db.insertBatch(
        std::span<const core::Record>(self.records), self.outcomes.data(),
        self.priorities.data());
    {
        std::lock_guard<std::mutex> lock(self.ingestMutex);
        self.ingest.merge(sum);
    }
    self.batchedInsertRuns.fetch_add(1, std::memory_order_relaxed);

    // Invalidate *after* the batch lands: the slice accumulated the
    // exact dirty-region mask while it wrote, and per-port
    // serialization guarantees no search on this port probes between
    // the writes and this bump.
    invalidateCache(port_no, /*wholePort=*/false);

    // Modeled cost: a serial CAM-mode insert occupies the bank for one
    // access slot per request (inserts report no bucketsAccessed), so
    // the run charges exactly what serial execution would -- modeled
    // accounting stays bit-identical, and the row-op economy of the
    // bulk path is reported through the ingest summary instead.
    const uint64_t cycles =
        count * std::max(1u, cfg.timing.minCycleGap);
    PortState &port = *ports[port_no];
    port.stats.modeledCycles.fetch_add(cycles, std::memory_order_relaxed);
    self.modeledCycles.fetch_add(cycles, std::memory_order_relaxed);

    for (std::size_t i = 0; i < count; ++i) {
        core::PortResponse resp;
        resp.tag = jobs[i].request.tag;
        resp.port = port_no;
        resp.op = core::PortOp::Insert;
        resp.hit = self.outcomes[i].ok;
        finish(self, std::move(resp), jobs[i].enqueued);
    }
}

void
ParallelSearchEngine::noteCompletion(uint64_t n)
{
    if (inflight.fetch_sub(n, std::memory_order_acq_rel) == n) {
        std::lock_guard<std::mutex> lock(drainMutex);
        drainCv.notify_all();
    }
}

void
ParallelSearchEngine::ring(unsigned worker_index)
{
    Worker &w = *workers[worker_index];
    // The empty critical section orders the ring after the waiter's
    // predicate check: either the waiter saw the pushed work, or it is
    // already parked and this notify wakes it.
    { std::lock_guard<std::mutex> lock(w.bellMutex); }
    w.bell.notify_one();
}

void
ParallelSearchEngine::ringAll()
{
    for (unsigned w = 0; w < workerCount; ++w)
        ring(w);
}

void
ParallelSearchEngine::workerMain(unsigned index)
{
    Worker &self = *workers[index];
    std::vector<Job> batch;
    for (;;) {
        // Shard sub-tasks first: they unblock coordinators (possibly
        // this worker's own producers) and are always short.
        bool progressed = false;
        while (const auto task = fanoutTasks->tryPop()) {
            runFanoutTask(*task);
            progressed = true;
        }
        if (self.queue.tryPopBatch(batch, cfg.drainBatch) > 0) {
            processJobs(batch, index);
            progressed = true;
        }
        if (progressed)
            continue;
        // Nothing anywhere: park on the doorbell.  Producers (submits
        // to this worker's queue, fan-out shard pushes, stop()) ring
        // after publishing, and the predicate re-checks every source
        // under the bell mutex, so no wakeup can be lost.
        std::unique_lock<std::mutex> lock(self.bellMutex);
        if (self.queue.closed() && self.queue.empty() &&
            fanoutTasks->empty())
            break;
        self.bell.wait(lock, [&] {
            return self.queue.closed() || !self.queue.empty() ||
                   !fanoutTasks->empty();
        });
    }
}

void
ParallelSearchEngine::processJobs(const std::vector<Job> &batch,
                                  unsigned index)
{
    Worker &self = *workers[index];
    // Prefetch pipeline (DESIGN.md section 4c): before job k executes,
    // job k + kHintAhead's home row is requested, so the row misses of
    // a popped batch overlap instead of queueing one behind another.
    // A hint changes no state; a batch of one issues none.
    constexpr std::size_t kHintAhead = 4;
    std::size_t next_hint = 1;
    std::size_t i = 0;
    while (i < batch.size()) {
        // Extend a run of same-port inserts up to batchSize; any other
        // request (or a port change) ends the run, so mutations never
        // reorder against the requests around them.
        std::size_t j = i;
        const core::PortOp op = batch[i].request.op;
        if (cfg.batchSize > 1 && op == core::PortOp::Insert) {
            while (j + 1 < batch.size() && j + 1 - i < cfg.batchSize &&
                   batch[j + 1].request.op == op &&
                   batch[j + 1].request.port == batch[i].request.port)
                ++j;
        }
        for (; next_hint < batch.size() && next_hint <= j + kHintAhead;
             ++next_hint) {
            const core::PortRequest &ahead = batch[next_hint].request;
            sys->database(ahead.port).prefetchHome(ahead.key);
        }
        if (j > i)
            executeInsertRun(batch.data() + i, j - i + 1, index);
        else
            execute(batch[i].request, batch[i].enqueued, index);
        self.executed += j - i + 1;
        i = j + 1;
    }
    publish(self);
}

bool
ParallelSearchEngine::submitRequest(const core::PortRequest &request)
{
    return submitBatch(std::span(&request, 1)) == 1;
}

bool
ParallelSearchEngine::submit(unsigned port, const Key &key, uint64_t tag)
{
    core::PortRequest req;
    req.port = port;
    req.op = core::PortOp::Search;
    req.key = key;
    req.tag = tag;
    return submitRequest(req);
}

bool
ParallelSearchEngine::trySubmit(unsigned port, const Key &key,
                                uint64_t tag)
{
    if (port >= ports.size())
        fatal(strprintf("submit to unknown virtual port %u", port));
    if (stopped)
        return false;
    core::PortRequest req;
    req.port = port;
    req.op = core::PortOp::Search;
    req.key = key;
    req.tag = tag;
    if (cfg.workers == 0)
        return submitRequest(req);
    // Same submitted-before-push protocol as submitBatch().
    inflight.fetch_add(1, std::memory_order_acq_rel);
    PortStats &stats = ports[port]->stats;
    stats.submitted.fetch_add(1, std::memory_order_relaxed);
    if (!workers[workerOf(port)]->queue.tryPush(
            Job{req, std::chrono::steady_clock::now()})) {
        stats.submitted.fetch_sub(1, std::memory_order_relaxed);
        noteCompletion(1);
        return false;
    }
    ring(workerOf(port));
    return true;
}

std::size_t
ParallelSearchEngine::submitBatch(
    std::span<const core::PortRequest> requests)
{
    for (const core::PortRequest &req : requests) {
        if (req.port >= ports.size())
            fatal(strprintf("submit to unknown virtual port %u", req.port));
    }
    if (stopped || requests.empty())
        return 0;
    if (cfg.workers == 0) {
        // Deterministic fallback: run inline on the calling thread and
        // publish at once.
        for (const core::PortRequest &req : requests) {
            ports[req.port]->stats.submitted.fetch_add(
                1, std::memory_order_relaxed);
            execute(req, std::chrono::steady_clock::now(),
                    workerOf(req.port));
            publish(*workers[workerOf(req.port)]);
        }
        return requests.size();
    }
    const auto now = std::chrono::steady_clock::now();
    // Requests per port, counted on the submitting thread (any number
    // of producers may submit at once; each has its own tally).
    static thread_local std::vector<uint64_t> tally;
    tally.assign(ports.size(), 0);
    for (const core::PortRequest &req : requests)
        ++tally[req.port];
    // Count the submissions *before* publishing the jobs: once a push
    // lands, the owning worker can complete a request at any moment,
    // and a submitted count that trails the push lets a concurrent
    // report() observe completed > submitted.  What does not land is
    // rolled back below.
    inflight.fetch_add(requests.size(), std::memory_order_acq_rel);
    for (std::size_t p = 0; p < ports.size(); ++p) {
        if (tally[p] > 0)
            ports[p]->stats.submitted.fetch_add(tally[p],
                                                std::memory_order_relaxed);
    }
    // One pushBatch per owning worker: its requests, in submission
    // order, written straight into the queue's ring slots.  The fill
    // takes each landed request off the tally, so the tally ends up
    // holding exactly what did not land.
    std::size_t accepted = 0;
    for (unsigned w = 0; w < workerCount; ++w) {
        std::size_t count = 0;
        for (std::size_t p = w; p < ports.size(); p += workerCount)
            count += tally[p];
        if (count == 0)
            continue;
        std::size_t next = 0;
        const std::size_t landed = workers[w]->queue.pushBatch(
            count,
            [&](Job &slot) {
                if (workerCount > 1) {
                    while (workerOf(requests[next].port) != w)
                        ++next;
                }
                slot.request = requests[next];
                slot.enqueued = now;
                --tally[requests[next].port];
                ++next;
            },
            [&] { ring(w); });
        accepted += landed;
        if (landed < count)
            break; // queue closed: stop() raced this batch
    }
    if (accepted < requests.size()) {
        for (std::size_t p = 0; p < ports.size(); ++p) {
            if (tally[p] > 0)
                ports[p]->stats.submitted.fetch_sub(
                    tally[p], std::memory_order_relaxed);
        }
        noteCompletion(requests.size() - accepted);
    }
    return accepted;
}

bool
ParallelSearchEngine::submitRebuild(unsigned port, uint64_t tag)
{
    core::PortRequest req;
    req.port = port;
    req.op = core::PortOp::Rebuild;
    req.tag = tag;
    return submitRequest(req);
}

core::InsertBatchSummary
ParallelSearchEngine::bulkLoad(unsigned port,
                               std::span<const core::Record> records,
                               core::InsertOutcome *outcomes,
                               const int *priorities)
{
    if (port >= ports.size())
        fatal(strprintf("bulk load to unknown virtual port %u", port));
    if (running)
        fatal("bulkLoad needs a stopped engine: a running port's "
              "database belongs to its worker thread");
    // Whole-port: a bulk load can touch most of the table, and with
    // the engine stopped no probe can race the bump anyway.
    invalidateCache(port, /*wholePort=*/true);
    return sys->database(port).insertBatch(records, outcomes, priorities);
}

void
ParallelSearchEngine::drain()
{
    if (cfg.workers == 0 || !running)
        return; // inline mode is always drained
    {
        std::unique_lock<std::mutex> lock(drainMutex);
        drainCv.wait(lock, [&] {
            return inflight.load(std::memory_order_acquire) == 0;
        });
    }
    // Quiesced window: inflight is 0, so no worker is mutating the
    // tables.  The bound reads AMAL from the slices' running counters
    // (O(ports), no row walk); the snapshot stays because those
    // counters are not atomic.
    refreshAnalyticBounds();
}

void
ParallelSearchEngine::refreshAnalyticBounds()
{
    for (std::size_t p = 0; p < ports.size(); ++p) {
        core::Database &db = sys->database(static_cast<unsigned>(p));
        const double bound = db.searchBandwidthMsps(cfg.timing);
        ports[p]->analyticBoundBits.store(std::bit_cast<uint64_t>(bound),
                                          std::memory_order_relaxed);
    }
}

void
ParallelSearchEngine::stop()
{
    if (stopped)
        return;
    if (running)
        drain();
    stopped = true;
    for (auto &w : workers)
        w->queue.close();
    fanoutTasks->close(); // drained already: no shard can be in flight
    ringAll();            // wake parked workers so they observe close
    for (std::thread &t : threads)
        t.join();
    threads.clear();
    running = false;
    refreshAnalyticBounds(); // post-join: nothing mutates any more
}

std::optional<core::PortResponse>
ParallelSearchEngine::fetchResult(unsigned port)
{
    if (port >= ports.size())
        fatal(strprintf("no results for unknown virtual port %u", port));
    PortState &state = *ports[port];
    std::lock_guard<std::mutex> lock(state.resultMutex);
    if (state.resultHead == state.results.size())
        return std::nullopt;
    return std::move(state.results[state.resultHead++]);
}

const PortStats &
ParallelSearchEngine::portStats(unsigned port) const
{
    if (port >= ports.size())
        fatal(strprintf("no stats for unknown virtual port %u", port));
    return ports[port]->stats;
}

EngineReport
ParallelSearchEngine::report() const
{
    EngineReport out;
    out.workers = workerCount;
    uint64_t total_cycles = 0;
    uint64_t max_cycles = 0;
    for (const auto &wp : workers) {
        Worker &w = *wp;
        const uint64_t wc =
            w.modeledCycles.load(std::memory_order_relaxed);
        total_cycles += wc;
        max_cycles = std::max(max_cycles, wc);
        out.batchedInsertRuns +=
            w.batchedInsertRuns.load(std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(w.ingestMutex);
            out.ingest.merge(w.ingest);
        }
        out.fanoutLookups +=
            w.fanoutLookups.load(std::memory_order_relaxed);
        out.fanoutShards +=
            w.fanoutShards.load(std::memory_order_relaxed);
        out.fanoutSerialFallbacks +=
            w.fanoutSerialFallbacks.load(std::memory_order_relaxed);
    }
    // `completed` before `wallEndNs`: each publish pushes its end
    // stamp before incrementing completed (publish()), so the
    // stamp read below covers every completion counted here and the
    // wall throughput cannot be inflated by a half-published
    // completion.
    for (const auto &p : ports) {
        out.completed += p->stats.completed.load(
            std::memory_order_acquire);
        out.cacheHits +=
            p->stats.cacheHits.load(std::memory_order_relaxed);
        out.cacheMisses +=
            p->stats.cacheMisses.load(std::memory_order_relaxed);
        out.cacheInvalidations += p->stats.cacheInvalidations.load(
            std::memory_order_relaxed);
    }
    if (resultCache_) {
        out.cacheWholePortInvalidations =
            resultCache_->wholePortInvalidations();
        out.cacheRegionInvalidations =
            resultCache_->regionInvalidations();
    }
    // cycles / f_clk[MHz] = microseconds; lookups per microsecond = Msps.
    if (max_cycles > 0)
        out.modeledMsps = static_cast<double>(out.completed) /
                          max_cycles * cfg.timing.clockMhz;
    if (total_cycles > 0)
        out.modeledSerialMsps = static_cast<double>(out.completed) /
                                total_cycles * cfg.timing.clockMhz;
    if (out.modeledSerialMsps > 0.0)
        out.modeledSpeedup = out.modeledMsps / out.modeledSerialMsps;
    for (std::size_t p = 0; p < ports.size(); ++p) {
        core::Database &db = sys->database(static_cast<unsigned>(p));
        // Inline mode computes the bound live (the caller is the only
        // executing thread); threaded engines read the snapshot from
        // the last quiesced point -- the live computation reads
        // non-atomic distance histograms the owning workers mutate.
        if (cfg.workers == 0)
            out.analyticBoundMsps += db.searchBandwidthMsps(cfg.timing);
        else
            out.analyticBoundMsps +=
                std::bit_cast<double>(ports[p]->analyticBoundBits.load(
                    std::memory_order_relaxed));
        out.prefilterProbes += db.slice().prefilterProbes();
        out.prefilterSkips += db.slice().prefilterSkips();
        if (const core::CaRamSlice *ov = db.overflowSlice()) {
            out.prefilterProbes += ov->prefilterProbes();
            out.prefilterSkips += ov->prefilterSkips();
        }
    }
    out.wallSeconds =
        wallEndNs.load(std::memory_order_acquire) / 1e9;
    if (out.wallSeconds > 0.0)
        out.wallMsps = out.completed / out.wallSeconds / 1e6;
    return out;
}

} // namespace caram::engine
