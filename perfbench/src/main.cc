/**
 * @file
 * caram_perfbench: the repository benchmark.  Runs one seeded workload
 * through engine::ParallelSearchEngine and prints its end-to-end metrics
 * (--trace 0) or its per-layer ladder (--trace 1); the last line of
 * standard output is the JSON result.  --selftest checks that the
 * deterministic figures repeat bit for bit.  See perfbench/README.md.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <malloc.h>

#include "drivers.h"
#include "ladder.h"
#include "util.h"
#include "workload.h"

using namespace perfbench;

namespace {

/** Every environment knob the library reads; cleared so the benchmark
 *  measures the program as configured here and nothing else. */
constexpr const char *kKnobs[] = {
    "CARAM_RESULT_CACHE_ENTRIES", "CARAM_PREFILTER",   "CARAM_WRITER_LANES",
    "CARAM_MAINTENANCE",          "CARAM_ROW_FANOUT_MIN",
    "CARAM_MATCH_KERNEL",         "CARAM_SEQLOCK_TEAR",
};

/** Rounds per run.  Each runs a closed-loop phase, an open-loop phase
 *  and, on a read-only workload, an update-probe phase, so a slow spell
 *  of the host lands on every metric alike. */
constexpr unsigned kRounds = 8;
/** Share of a read-only workload's run spent on its update probe; the
 *  rest is split evenly between the two loops. */
constexpr double kProbeShare = 0.125;
/** The quantiles the end-to-end figures are read at.  This host runs in
 *  quiet and contended periods, switching within seconds: closed-loop
 *  rounds and latency windows fall into two clusters, and a median jumps
 *  between them with their mix from run to run.  The fastest tenth of
 *  rounds and the quietest tenth of windows track the quiet periods. */
constexpr double kFastRounds = 0.9;
constexpr double kQuietWindows = 0.1;
/** Requests each determinism self-check run submits. */
constexpr uint64_t kSelftestOps = 100000;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 24.0; // BENCHMARK.json's run_seconds
    int trace = 0;
    std::string spans;
    bool selftest = false;
};

std::optional<Args>
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            return std::nullopt;
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (flag == "--trace")
            a.trace = std::atoi(v);
        else if (flag == "--spans")
            a.spans = v;
        else
            return std::nullopt;
    }
    // run_seconds is at most 60; the flow stream is sized from it.
    if (!(a.seconds > 0.0 && a.seconds <= 60.0) ||
        (a.trace != 0 && a.trace != 1))
        return std::nullopt;
    if (!a.selftest && a.workload.empty())
        return std::nullopt;
    return a;
}

/** One diagnostic line: @p name's p50, p99, p999 and max in
 *  microseconds, with the sample count. */
void
printTail(const char *name, const LatencyHist &h, const char *note = "")
{
    std::printf("diag %s_p50_us=%.2f %s_p99_us=%.2f %s_p999_us=%.2f "
                "%s_max_us=%.2f samples=%llu%s\n",
                name, h.quantile(0.5), name, h.quantile(0.99), name,
                h.quantile(0.999), name, h.max(),
                static_cast<unsigned long long>(h.count()), note);
}

/** One diagnostic line: @p name's values, in the order measured. */
void
printSeries(const char *name, const std::vector<double> &v)
{
    std::printf("diag %s", name);
    for (const double x : v)
        std::printf(" %.4f", x);
    std::printf("\n");
}

/** One diagnostic line: the count and the 10th, 25th, 50th, 75th and
 *  90th percentiles of @p v. */
void
printSpread(const char *name, const std::vector<double> &v)
{
    std::printf("diag %s n=%zu p10=%.4f p25=%.4f p50=%.4f p75=%.4f "
                "p90=%.4f\n",
                name, v.size(), quantile(v, 0.1), quantile(v, 0.25),
                quantile(v, 0.5), quantile(v, 0.75), quantile(v, 0.9));
}

void
printResult(const Outcome &out, const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                out.failed == 0 && out.attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), m.json().c_str());
}

/** --trace 0: the end-to-end run. */
int
runMeasured(const Args &a)
{
    const double host_before = hostRefLoopNs();
    const std::unique_ptr<Workload> w =
        makeWorkload(a.workload, a.seed, a.seconds);
    const OpSource &src = w->stream();
    const OpSource *probe = w->updateProbe();
    const double probe_s = probe ? a.seconds * kProbeShare : 0.0;
    const double phase_s = 0.5 * (a.seconds - probe_s) / kRounds;
    const uint64_t open_per_round =
        static_cast<uint64_t>(w->openLoopRate() * phase_s);

    // Several set-ups; the last one serves the measured phases.
    std::vector<double> setups;
    Stack s;
    for (unsigned r = 0; r < w->setupRepeats(); ++r) {
        s.release();
        s = buildStack(*w, std::nullopt, true);
        setups.push_back(s.setupSeconds);
    }
    printResolved(*w, *s.engine);
    const unsigned ports = static_cast<unsigned>(s.sys->databaseCount());

    // Every phase continues the stream where the last one stopped, on one
    // table, so the reference replay covers positions [0, next).
    Outcome out, probe_out;
    if (w->mutating())
        out.recorded.assign(src.size(), 0);
    std::size_t next = 0;
    std::vector<double> round_mops, search_p50, update_p50, search_win,
        update_win;
    LatencyHist search_all, update_all, late_all;
    const auto collect = [](const Latencies &l, std::vector<double> &p50,
                            std::vector<double> &windows, LatencyHist &all) {
        if (l.all.count() == 0)
            return;
        p50.push_back(l.all.quantile(0.5));
        windows.insert(windows.end(), l.windows.medians().begin(),
                       l.windows.medians().end());
        all.merge(l.all);
    };
    uint64_t closed_ops = 0, open_ops = 0, probe_ops = 0;
    double closed_seconds = 0.0;
    for (unsigned r = 0; r < kRounds; ++r) {
        const ClosedResult cr =
            closedLoop(*s.engine, ports, src, next, out, phase_s, UINT64_MAX);
        next += cr.ops;
        closed_ops += cr.ops;
        closed_seconds += cr.seconds;
        round_mops.insert(round_mops.end(), cr.roundMops.begin(),
                          cr.roundMops.end());
        const uint64_t n = src.cyclic()
            ? open_per_round
            : std::min<uint64_t>(open_per_round, src.size() - next);
        const OpenResult open = openLoop(*s.engine, ports, src, next, out,
                                         w->openLoopRate(), n,
                                         a.seed ^ (0x0be7 + r));
        next += open.ops;
        open_ops += open.ops;
        collect(open.search, search_p50, search_win, search_all);
        collect(open.update, update_p50, update_win, update_all);
        late_all.merge(open.lateUs);
        // A read-only stream never writes, so its update latency comes
        // from the probe, one request at a time.
        if (probe) {
            collect(serialLoop(*s.engine, *probe, probe_ops, probe_out,
                               probe_s / kRounds, probe_ops),
                    update_p50, update_win, update_all);
        }
    }
    const caram::engine::EngineReport report = s.engine->report();
    // Peak RSS of the measured phases; what follows only adds the
    // benchmark's own data.
    const double memory_mb = peakRssMb();
    s.engine->drain();
    const double modeled = modeledMsps(*s.sys, ports, src);
    s.release();
    w->replayCheck({&out});
    const double host_after = hostRefLoopNs();

    Outcome total;
    for (const Outcome *o : {&out, &probe_out}) {
        total.attempted += o->attempted;
        total.failed += o->failed;
    }
    std::printf("closed loop: %llu ops in %.3f s (%.4f Mops overall, "
                "%llu cache hits, %llu misses in all phases)\n",
                static_cast<unsigned long long>(closed_ops), closed_seconds,
                static_cast<double>(closed_ops) / closed_seconds * 1e-6,
                static_cast<unsigned long long>(report.cacheHits),
                static_cast<unsigned long long>(report.cacheMisses));
    std::printf("open loop: %llu ops at %.0f/s in %u phases\n",
                static_cast<unsigned long long>(open_ops), w->openLoopRate(),
                kRounds);
    if (probe) {
        std::printf("update probe: %llu ops, one at a time\n",
                    static_cast<unsigned long long>(probe_ops));
    }
    printTail("search", search_all);
    printTail("update", update_all, probe ? " (update probe)" : "");
    printTail("bench.generator_late", late_all);
    std::printf("diag host.ref_loop_ns before=%.4f after=%.4f\n", host_before,
                host_after);
    printSeries("setup_s", setups);
    printSeries("search_p50_us_by_phase", search_p50);
    printSeries("update_p50_us_by_phase", update_p50);
    printSpread("closed_round_mops", round_mops);
    printSpread("search_window_p50_us", search_win);
    printSpread("update_window_p50_us", update_win);

    Metrics m;
    m.set("throughput_mops", quantile(round_mops, kFastRounds), "Mops");
    m.set("search_p50_us", quantile(search_win, kQuietWindows), "us");
    m.set("update_p50_us", quantile(update_win, kQuietWindows), "us");
    m.set("modeled_msps", modeled, "Msps");
    m.set("setup_s", median(setups), "s");
    m.set("memory_mb", memory_mb, "MB");
    printResult(total, m);
    return 0;
}

/** --trace 1: the per-layer ladder. */
int
runTraced(const Args &a)
{
    const double host_before = hostRefLoopNs();
    const std::unique_ptr<Workload> w = makeWorkload(a.workload, a.seed, 0.0);
    Metrics m;
    Outcome out;
    SpanRecorder spans(1u << 20);
    runLadder(*w, m, out, spans);
    m.set("host.ref_loop_ns", 0.5 * (host_before + hostRefLoopNs()), "ns");
    if (!a.spans.empty() && !spans.write(a.spans))
        std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans.c_str());
    std::printf("trace: %zu spans\n", spans.size());
    printResult(out, m);
    return 0;
}

/**
 * The determinism self-check: modeled_msps, the engine's summed
 * bucketsAccessed and core.slice.rows_per_search must be bit-identical
 * across two runs of one seed and between the workload's worker count
 * and workers = 0.
 */
int
runSelftest(const Args &a)
{
    bool pass = true;
    for (const std::string &name : workloadNames()) {
        const std::unique_ptr<Workload> w = makeWorkload(name, a.seed, 0.0);
        const uint64_t n = kSelftestOps;
        struct Figures
        {
            double modeled = 0.0, rows = 0.0;
            uint64_t engineRows = 0, failed = 0;
        };
        std::vector<Figures> runs;
        for (const std::optional<unsigned> workers :
             {std::optional<unsigned>{}, std::optional<unsigned>{},
              std::optional<unsigned>{0u}}) {
            Stack s = buildStack(*w, workers, true);
            const unsigned ports =
                static_cast<unsigned>(s.sys->databaseCount());
            Outcome o;
            if (w->mutating())
                o.recorded.assign(n, 0);
            closedLoop(*s.engine, ports, w->stream(), 0, o, 1e9, n);
            s.engine->stop();
            Figures f;
            f.modeled = modeledMsps(*s.sys, ports, w->stream());
            for (unsigned p = 0; p < ports; ++p) {
                const caram::Histogram &h =
                    s.engine->portStats(p).bucketsAccessed;
                for (uint64_t v = 0; v <= h.maxValue(); ++v)
                    f.engineRows += v * h.at(v);
            }
            if (w->mutating()) {
                s.release();
                s = buildStack(*w, workers, false);
            }
            f.rows = sliceRowsPerSearch(*w, *s.sys);
            w->replayCheck({&o});
            f.failed = o.failed;
            runs.push_back(f);
            std::printf("selftest %s workers=%s: modeled_msps=%.17g "
                        "rows_per_search=%.17g engine_rows=%llu failed=%llu\n",
                        name.c_str(),
                        workers ? std::to_string(*workers).c_str() : "default",
                        f.modeled, f.rows,
                        static_cast<unsigned long long>(f.engineRows),
                        static_cast<unsigned long long>(f.failed));
        }
        for (const Figures &f : runs) {
            const bool same =
                std::memcmp(&f.modeled, &runs[0].modeled, sizeof f.modeled) ==
                    0 &&
                std::memcmp(&f.rows, &runs[0].rows, sizeof f.rows) == 0 &&
                f.engineRows == runs[0].engineRows;
            if (!same || f.failed != 0 || f.modeled <= 0.0)
                pass = false;
        }
    }
    std::printf("selftest %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::optional<Args> args = parseArgs(argc, argv);
    if (!args) {
        std::fprintf(stderr,
                     "usage: caram_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--spans FILE]\n"
                     "       caram_perfbench --selftest [--seed N] "
                     "[--seconds S]\n");
        return 2;
    }
    for (const char *knob : kKnobs)
        unsetenv(knob);
    // A fixed mmap threshold: large blocks (tables, streams) go back to
    // the system when freed, so peak RSS counts live memory rather than
    // whatever the allocator kept from an earlier set-up.
    mallopt(M_MMAP_THRESHOLD, 256 * 1024);
    if (args->selftest)
        return runSelftest(*args);
    bool known = false;
    for (const std::string &n : workloadNames())
        known |= n == args->workload;
    if (!known) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n",
                     args->workload.c_str());
        return 2;
    }
    return args->trace ? runTraced(*args) : runMeasured(*args);
}
