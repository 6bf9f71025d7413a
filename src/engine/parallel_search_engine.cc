#include "engine/parallel_search_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "common/logging.h"
#include "common/strings.h"

namespace caram::engine {

/** A request travelling through a worker queue, stamped at enqueue. */
struct ParallelSearchEngine::Job
{
    core::PortRequest request;
    std::chrono::steady_clock::time_point enqueued;
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
     *  because report() sums them while the run is still in flight. */
    std::atomic<uint64_t> modeledCycles{0};
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

void
ParallelSearchEngine::execute(
    const core::PortRequest &request,
    std::chrono::steady_clock::time_point enqueued, unsigned worker_index)
{
    core::PortResponse resp =
        core::executePortRequest(sys->database(request.port), request);

    // Modeled cost: the request occupies this worker's bank for n_mem
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
ParallelSearchEngine::noteCompletion(uint64_t n)
{
    if (inflight.fetch_sub(n, std::memory_order_acq_rel) == n) {
        std::lock_guard<std::mutex> lock(drainMutex);
        drainCv.notify_all();
    }
}

void
ParallelSearchEngine::workerMain(unsigned index)
{
    // The worker's only source of work is its own queue: popBatch()
    // sleeps while the queue is empty, a push wakes it, and close()
    // (stop()) ends the loop once the queue is drained.
    std::vector<Job> batch;
    while (workers[index]->queue.popBatch(batch, cfg.drainBatch) > 0)
        processJobs(batch, index);
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
    for (std::size_t i = 0; i < batch.size(); ++i) {
        for (; next_hint < batch.size() && next_hint <= i + kHintAhead;
             ++next_hint) {
            const core::PortRequest &ahead = batch[next_hint].request;
            sys->database(ahead.port).prefetchHome(ahead.key);
        }
        execute(batch[i].request, batch[i].enqueued, index);
    }
    self.executed += batch.size();
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
            });
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
        w->queue.close(); // wakes a worker asleep in popBatch()
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
        const uint64_t wc =
            wp->modeledCycles.load(std::memory_order_relaxed);
        total_cycles += wc;
        max_cycles = std::max(max_cycles, wc);
    }
    // `completed` before `wallEndNs`: each publish pushes its end
    // stamp before incrementing completed (publish()), so the
    // stamp read below covers every completion counted here and the
    // wall throughput cannot be inflated by a half-published
    // completion.
    for (const auto &p : ports)
        out.completed += p->stats.completed.load(std::memory_order_acquire);
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
    }
    out.wallSeconds =
        wallEndNs.load(std::memory_order_acquire) / 1e9;
    if (out.wallSeconds > 0.0)
        out.wallMsps = out.completed / out.wallSeconds / 1e6;
    return out;
}

} // namespace caram::engine
