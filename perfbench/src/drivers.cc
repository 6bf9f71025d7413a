#include "drivers.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include "common/cpuid.h"
#include "common/random.h"
#include "core/timing_engine.h"

namespace perfbench {

namespace core = caram::core;
namespace engine = caram::engine;

void
pinThreads()
{
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    }
    std::vector<pid_t> tids;
    if (DIR *dir = opendir("/proc/self/task")) {
        while (const dirent *e = readdir(dir)) {
            if (e->d_name[0] != '.')
                tids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
        }
        closedir(dir);
    }
    // The client (the process's first thread) first, then the others in
    // the order they were created.
    std::sort(tids.begin(), tids.end());
    const pid_t client = getpid();
    std::stable_partition(tids.begin(), tids.end(),
                          [&](pid_t t) { return t == client; });
    for (std::size_t i = 0; i < tids.size() && !cpus.empty(); ++i) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i % cpus.size()], &one);
        sched_setaffinity(tids[i], sizeof one, &one);
    }
}

Stack
buildStack(const Workload &w, std::optional<unsigned> workers, bool start)
{
    Stack s;
    int64_t t0 = nowNs();
    s.sys = std::make_unique<core::CaRamSubsystem>(kWindow, kWindow);
    w.addDatabases(*s.sys);
    engine::EngineConfig cfg = w.engineConfig();
    if (workers)
        cfg.workers = *workers;
    s.engine = std::make_unique<engine::ParallelSearchEngine>(*s.sys, cfg);
    double seconds = static_cast<double>(nowNs() - t0) * 1e-9;
    s.loadSeconds = w.load(*s.engine);
    seconds += s.loadSeconds;
    if (start) {
        t0 = nowNs();
        s.engine->start();
        seconds += static_cast<double>(nowNs() - t0) * 1e-9;
    }
    s.setupSeconds = seconds;
    if (start)
        pinThreads();
    return s;
}

void
printResolved(const Workload &w, const engine::ParallelSearchEngine &e)
{
    std::printf("config %s: workers=%u result_cache_entries=%zu "
                "writer_lanes=%u prefilter=%d maintenance=%d "
                "match_kernel=%s\n",
                w.name().c_str(), w.engineConfig().workers,
                e.resolvedResultCacheEntries(), e.resolvedWriterLanes(),
                e.resolvedPrefilter() ? 1 : 0, e.resolvedMaintenance() ? 1 : 0,
                caram::simd::kernelName(caram::simd::activeMatchKernel()));
}

namespace {

/** Opens a span on construction and closes it on destruction (no-op
 *  without a recorder). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *r, uint32_t name, uint64_t request,
               uint32_t parent = 0)
        : r_(r), handle_(r ? r->open(name, request, parent) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (r_)
            r_->close(handle_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    uint32_t handle() const { return handle_; }

  private:
    SpanRecorder *r_;
    uint32_t handle_;
};

} // namespace

ClosedResult
closedLoop(engine::ParallelSearchEngine &eng, unsigned ports,
           const OpSource &src, std::size_t first, Outcome &out,
           double seconds, uint64_t max_ops, SpanRecorder *spans,
           const EngineSpanIds *ids)
{
    const uint64_t limit =
        src.cyclic() ? max_ops
                     : std::min<uint64_t>(max_ops, src.size() - first);
    std::vector<core::PortRequest> batch(kWindow);
    std::vector<std::vector<std::size_t>> by_port(ports);
    ClosedResult r;
    const int64_t t0 = nowNs();
    const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
    uint64_t done = 0;
    int64_t now = t0;
    while (done < limit) {
        const std::size_t n =
            static_cast<std::size_t>(std::min<uint64_t>(kWindow, limit - done));
        for (auto &v : by_port)
            v.clear();
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t pos = first + done + k;
            src.fill(pos, batch[k]);
            batch[k].tag = pos;
            by_port[batch[k].port].push_back(pos);
        }
        const int64_t round_start = nowNs();
        {
            const ScopedSpan round(spans, ids ? ids->round : 0, first + done);
            const uint32_t parent = round.handle();
            {
                const ScopedSpan s(spans, ids ? ids->submit : 0,
                                   first + done, parent);
                eng.submitBatch(std::span(batch.data(), n));
            }
            {
                const ScopedSpan s(spans, ids ? ids->drain : 0, first + done,
                                   parent);
                eng.drain();
            }
            for (unsigned p = 0; p < ports; ++p) {
                for (const std::size_t pos : by_port[p]) {
                    std::optional<core::PortResponse> resp;
                    {
                        const ScopedSpan s(spans, ids ? ids->fetch : 0, pos,
                                           parent);
                        resp = eng.fetchResult(p);
                    }
                    if (!resp || resp->tag != pos) {
                        ++out.attempted;
                        out.fail("missing or reordered response @" +
                                 std::to_string(pos));
                        continue;
                    }
                    src.check(pos, *resp, out);
                }
            }
        }
        done += n;
        now = nowNs();
        r.roundMops.push_back(static_cast<double>(n) * 1e3 /
                              static_cast<double>(now - round_start));
        if (now >= deadline)
            break;
    }
    r.ops = done;
    r.seconds = static_cast<double>(now - t0) * 1e-9;
    return r;
}

OpenResult
openLoop(engine::ParallelSearchEngine &eng, unsigned ports,
         const OpSource &src, std::size_t first, Outcome &out, double rate,
         uint64_t count, uint64_t seed)
{
    struct Pending
    {
        std::size_t pos;
        int64_t due;
    };
    caram::Rng rng(seed);
    const double mean_gap_ns = 1e9 / rate;
    auto gap = [&] { return -std::log1p(-rng.uniform()) * mean_gap_ns; };

    OpenResult r;
    std::vector<std::deque<Pending>> pending(ports);
    // Responses fetched per port, as a count of the port's completions:
    // every earlier response was fetched before this loop began.
    std::vector<uint64_t> fetched(ports);
    for (unsigned p = 0; p < ports; ++p)
        fetched[p] = eng.portStats(p).completed.load(std::memory_order_acquire);
    std::vector<core::PortRequest> batch(kWindow);
    std::vector<int64_t> due(kWindow);
    uint64_t submitted = 0;
    uint64_t completed = 0;
    const int64_t t0 = nowNs();
    // A system that cannot keep up would stretch the run without bound;
    // past four times the schedule, stop issuing.
    const int64_t cutoff =
        t0 + static_cast<int64_t>(4.0 * static_cast<double>(count) *
                                  mean_gap_ns) +
        1'000'000'000;
    double next_due = gap(); // ns after t0
    while (completed < submitted || submitted < count) {
        const int64_t now = nowNs();
        if (submitted < count && now > cutoff) {
            std::fprintf(stderr,
                         "perfbench: open loop cut after %llu of %llu "
                         "requests\n",
                         static_cast<unsigned long long>(submitted),
                         static_cast<unsigned long long>(count));
            count = submitted;
        }
        std::size_t m = 0;
        while (submitted + m < count && m < kWindow &&
               t0 + static_cast<int64_t>(next_due) <= now) {
            const std::size_t pos = first + submitted + m;
            src.fill(pos, batch[m]);
            batch[m].tag = pos;
            due[m] = t0 + static_cast<int64_t>(next_due);
            pending[batch[m].port].push_back({pos, due[m]});
            next_due += gap();
            ++m;
        }
        if (m > 0) {
            const int64_t at = nowNs();
            for (std::size_t j = 0; j < m; ++j)
                r.lateUs.add(static_cast<double>(at - due[j]) * 1e-3);
            eng.submitBatch(std::span(batch.data(), m));
            submitted += m;
        }
        for (unsigned p = 0; p < ports; ++p) {
            // fetchResult takes the port's result mutex; polling it in a
            // tight loop from another CPU stalls the worker publishing
            // the next response, so watch the completion count instead.
            const uint64_t ready =
                eng.portStats(p).completed.load(std::memory_order_acquire);
            while (!pending[p].empty() && fetched[p] < ready) {
                std::optional<core::PortResponse> resp = eng.fetchResult(p);
                if (!resp)
                    break;
                ++fetched[p];
                const int64_t t = nowNs();
                const Pending pd = pending[p].front();
                pending[p].pop_front();
                ++completed;
                if (resp->tag != pd.pos) {
                    ++out.attempted;
                    out.fail("reordered response @" + std::to_string(pd.pos));
                    continue;
                }
                const double us = static_cast<double>(t - pd.due) * 1e-3;
                (src.kind(pd.pos) == OpKind::Lookup ? r.search : r.update)
                    .add(us);
                src.check(pd.pos, *resp, out);
            }
        }
    }
    r.ops = completed;
    r.seconds = static_cast<double>(nowNs() - t0) * 1e-9;
    return r;
}

Latencies
serialLoop(engine::ParallelSearchEngine &eng, const OpSource &src,
           std::size_t first, Outcome &out, double seconds, uint64_t &ran)
{
    Latencies us;
    core::PortRequest req;
    const int64_t deadline = nowNs() + static_cast<int64_t>(seconds * 1e9);
    for (std::size_t pos = first;; ++pos) {
        if (!src.cyclic() && pos >= src.size())
            break;
        src.fill(pos, req);
        req.tag = pos;
        const std::atomic<uint64_t> &completed =
            eng.portStats(req.port).completed;
        const uint64_t before = completed.load(std::memory_order_acquire);
        const int64_t t0 = nowNs();
        eng.submitRequest(req);
        // Watch the completion count, as the open loop does.
        while (completed.load(std::memory_order_acquire) == before) {
        }
        const int64_t t1 = nowNs();
        const std::optional<core::PortResponse> resp =
            eng.fetchResult(req.port);
        if (!resp) {
            ++out.attempted;
            out.fail("missing response @" + std::to_string(pos));
            break;
        }
        us.add(static_cast<double>(t1 - t0) * 1e-3);
        ++ran;
        if (resp->tag != pos) {
            ++out.attempted;
            out.fail("reordered response @" + std::to_string(pos));
        } else {
            src.check(pos, *resp, out);
        }
        // Stop after an erase, so a probe leaves the table as it was.
        if (t1 >= deadline && src.kind(pos) != OpKind::Insert)
            break;
    }
    return us;
}

double
modeledMsps(core::CaRamSubsystem &sys, unsigned ports, const OpSource &src)
{
    std::vector<std::vector<caram::Key>> keys(ports);
    core::PortRequest req;
    std::size_t full = 0;
    for (std::size_t i = 0; i < src.size() && full < ports; ++i) {
        if (src.kind(i) != OpKind::Lookup)
            continue;
        src.fill(i, req);
        auto &k = keys[req.port];
        if (k.size() < kModeledLookups) {
            k.push_back(req.key);
            full += k.size() == kModeledLookups;
        }
    }
    double lookups = 0.0;
    double slowest_us = 0.0;
    for (unsigned p = 0; p < ports; ++p) {
        core::TimingConfig tc;
        tc.timing = caram::mem::MemTiming::embeddedDram(200.0, 6);
        core::TimingEngine timing(sys.database(p), tc);
        const core::TimingRunResult run = timing.run(keys[p]);
        lookups += static_cast<double>(run.lookups);
        slowest_us = std::max(slowest_us, static_cast<double>(run.lookups) /
                                              run.achievedMsps);
    }
    return slowest_us > 0.0 ? lookups / slowest_us : 0.0;
}

} // namespace perfbench
