/**
 * @file
 * Extension: the parallel search engine against the single-threaded
 * drain (paper section 3.4's bandwidth argument, taken to the subsystem
 * level).
 *
 *   B = N_slice / n_mem * f_clk
 *
 * A 4-database CA-RAM subsystem serves a balanced 4-port search stream
 * three ways: the serial input controller (CaRamSubsystem::process(),
 * shared and split request queues) and the ParallelSearchEngine at 1,
 * 2 and 4 worker threads.  Throughput is accounted in modeled memory
 * cycles -- each controller serializes its own lookups at n_mem cycles
 * per bucket access, independent controllers run concurrently -- so
 * the speedup column is deterministic and host-independent; wall-clock
 * numbers are reported alongside.  Per-port result streams of every
 * engine run are verified bit-identical to the serial drain's.
 *
 * A second section runs 90/10 read/write traffic, with each port's
 * owning worker executing its mutations in place, next to the
 * read-only stream (informational: the search share of the mixed
 * makespan against read-only).
 *
 * A third section sweeps Zipf-skewed hot-key traffic (s in {0, 0.8,
 * 0.99, 1.2}) through the lock-free result cache
 * (EngineConfig::resultCacheEntries): hit rate, modeled Msps uplift
 * over the uncached engine, tail latency, and the invalidation cost of
 * the same cache under 90/10 read/write churn -- including a Zipf
 * s=0.99 churn leg where row-granular invalidation must keep the
 * hot-key hit rate above 50% (whole-port generations scored ~0%).
 * Cached result streams are verified bit-identical to the uncached
 * engine's.
 *
 * Usage: ext_parallel_engine [searches_per_port]
 *                            [--json PATH] [--baseline PATH]
 *        (default 50000 searches per port)
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/strings.h"
#include "core/subsystem.h"
#include "engine/parallel_search_engine.h"
#include "hash/bit_select.h"

using namespace caram;
using namespace caram::core;

namespace {

constexpr unsigned kPorts = 4;
constexpr unsigned kKeyBits = 32;
constexpr uint64_t kRecordsPerDb = 5000;

DatabaseConfig
benchDbConfig(const std::string &name)
{
    DatabaseConfig cfg;
    cfg.name = name;
    cfg.sliceShape.indexBits = 10;     // 1024 buckets
    cfg.sliceShape.logicalKeyBits = kKeyBits;
    cfg.sliceShape.ternary = false;
    cfg.sliceShape.slotsPerBucket = 8; // 8192 slots, ~61% load
    cfg.sliceShape.dataBits = 16;
    cfg.sliceShape.maxProbeDistance = 16;
    cfg.indexFactory = [](const SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        return std::make_unique<hash::LowBitsIndex>(eff.logicalKeyBits,
                                                    eff.indexBits);
    };
    return cfg;
}

std::unique_ptr<CaRamSubsystem>
buildSubsystem(bool split_queues, std::size_t queue_capacity)
{
    auto sys = std::make_unique<CaRamSubsystem>(
        queue_capacity, queue_capacity, split_queues);
    Rng rng(12345);
    for (unsigned p = 0; p < kPorts; ++p) {
        Database &db =
            sys->addDatabase(benchDbConfig("shard" + std::to_string(p)));
        for (uint64_t i = 0; i < kRecordsPerDb; ++i) {
            const uint64_t v = rng.next64() & 0xffffffffu;
            db.insert(Record{Key::fromUint(v, kKeyBits), i & 0xffffu});
        }
    }
    return sys;
}

/** Balanced request stream: port-interleaved searches, ~60% hits. */
std::vector<PortRequest>
buildStream(std::size_t searches_per_port)
{
    // Same stream for every run: the record keys are re-derivable from
    // the same seed that loaded the databases.
    std::vector<std::vector<uint64_t>> loaded(kPorts);
    Rng rng(12345);
    for (unsigned p = 0; p < kPorts; ++p)
        for (uint64_t i = 0; i < kRecordsPerDb; ++i)
            loaded[p].push_back(rng.next64() & 0xffffffffu);

    std::vector<PortRequest> stream;
    stream.reserve(searches_per_port * kPorts);
    Rng pick(777);
    uint64_t tag = 0;
    for (std::size_t i = 0; i < searches_per_port; ++i) {
        for (unsigned p = 0; p < kPorts; ++p) {
            PortRequest req;
            req.port = p;
            req.op = PortOp::Search;
            const uint64_t v = pick.chance(0.6)
                ? loaded[p][pick.below(loaded[p].size())]
                : pick.next64() & 0xffffffffu;
            req.key = Key::fromUint(v, kKeyBits);
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
    }
    return stream;
}

/**
 * Mixed 90/10 read/write stream: nine searches per write slot, port-
 * interleaved.  Writes alternate fresh-key inserts with erases of the
 * oldest previously inserted key once a small per-port pool fills, so
 * the table load stays at the loaded baseline and every run of the
 * stream is reproducible.
 */
std::vector<PortRequest>
buildMixedStream(std::size_t ops_per_port)
{
    std::vector<std::vector<uint64_t>> loaded(kPorts);
    Rng rng(12345);
    for (unsigned p = 0; p < kPorts; ++p)
        for (uint64_t i = 0; i < kRecordsPerDb; ++i)
            loaded[p].push_back(rng.next64() & 0xffffffffu);

    std::vector<PortRequest> stream;
    stream.reserve(ops_per_port * kPorts);
    std::vector<std::vector<uint64_t>> pool(kPorts);
    std::vector<std::size_t> next_erase(kPorts, 0);
    Rng pick(555);
    uint64_t tag = 0;
    for (std::size_t i = 0; i < ops_per_port; ++i) {
        for (unsigned p = 0; p < kPorts; ++p) {
            PortRequest req;
            req.port = p;
            req.tag = ++tag;
            if (i % 10 == 9) {
                auto &pending = pool[p];
                if (pending.size() - next_erase[p] >= 128) {
                    req.op = PortOp::Erase;
                    req.key = Key::fromUint(pending[next_erase[p]++],
                                            kKeyBits);
                } else {
                    req.op = PortOp::Insert;
                    const uint64_t v = pick.next64() & 0xffffffffu;
                    req.key = Key::fromUint(v, kKeyBits);
                    req.data = static_cast<uint64_t>(i) & 0xffffu;
                    pending.push_back(v);
                }
            } else {
                req.op = PortOp::Search;
                const uint64_t v = pick.chance(0.6)
                    ? loaded[p][pick.below(loaded[p].size())]
                    : pick.next64() & 0xffffffffu;
                req.key = Key::fromUint(v, kKeyBits);
            }
            stream.push_back(std::move(req));
        }
    }
    return stream;
}

/**
 * Zipf-skewed search stream: per port, keys drawn from the loaded
 * record population with Zipf(@p skew) popularity over a per-port
 * seeded permutation (ZipfStream), ports interleaved.  s = 0
 * degenerates to uniform traffic; s around 1 is the classic hot-key
 * law the result cache targets.
 */
std::vector<PortRequest>
buildZipfStream(std::size_t searches_per_port, double skew)
{
    std::vector<std::vector<uint64_t>> loaded(kPorts);
    Rng rng(12345);
    for (unsigned p = 0; p < kPorts; ++p)
        for (uint64_t i = 0; i < kRecordsPerDb; ++i)
            loaded[p].push_back(rng.next64() & 0xffffffffu);

    std::vector<ZipfStream> zipf;
    for (unsigned p = 0; p < kPorts; ++p)
        zipf.emplace_back(kRecordsPerDb, skew, 900 + p);

    std::vector<PortRequest> stream;
    stream.reserve(searches_per_port * kPorts);
    Rng pick(888);
    uint64_t tag = 0;
    for (std::size_t i = 0; i < searches_per_port; ++i) {
        for (unsigned p = 0; p < kPorts; ++p) {
            PortRequest req;
            req.port = p;
            req.op = PortOp::Search;
            req.key = Key::fromUint(loaded[p][zipf[p].next(pick)],
                                    kKeyBits);
            req.tag = ++tag;
            stream.push_back(std::move(req));
        }
    }
    return stream;
}

/**
 * Zipf-skewed 90/10 churn stream: nine Zipf(@p skew) searches per
 * write slot, with the writes alternating fresh-key inserts and erases
 * of the oldest insert (same discipline as buildMixedStream, so table
 * load holds steady).  The traffic is spatially split the way hot-key
 * workloads actually are: churn writes land in a cold home-row band
 * (rows 768..991 under the LowBitsIndex home = key mod 1024; capped
 * below 1008 so a 16-deep probe chain cannot wrap into row 0), while
 * the Zipf search population is the loaded keys homed *outside* that
 * band.  This is exactly the shape row-granular invalidation exists
 * for: under whole-port generations every write killed the entire
 * cache partition (~0% hit rate -- see the uniform churn line above);
 * regional stamps leave the hot keys' regions untouched.
 */
std::vector<PortRequest>
buildZipfChurnStream(std::size_t ops_per_port, double skew)
{
    constexpr uint64_t kColdBase = 768, kColdRows = 224;
    std::vector<std::vector<uint64_t>> hot(kPorts);
    Rng rng(12345);
    for (unsigned p = 0; p < kPorts; ++p)
        for (uint64_t i = 0; i < kRecordsPerDb; ++i) {
            const uint64_t v = rng.next64() & 0xffffffffu;
            if ((v & 1023u) < kColdBase)
                hot[p].push_back(v);
        }

    std::vector<ZipfStream> zipf;
    for (unsigned p = 0; p < kPorts; ++p)
        zipf.emplace_back(hot[p].size(), skew, 900 + p);

    std::vector<PortRequest> stream;
    stream.reserve(ops_per_port * kPorts);
    std::vector<std::vector<uint64_t>> pool(kPorts);
    std::vector<std::size_t> next_erase(kPorts, 0);
    Rng pick(666);
    uint64_t tag = 0;
    for (std::size_t i = 0; i < ops_per_port; ++i) {
        for (unsigned p = 0; p < kPorts; ++p) {
            PortRequest req;
            req.port = p;
            req.tag = ++tag;
            if (i % 10 == 9) {
                auto &pending = pool[p];
                if (pending.size() - next_erase[p] >= 128) {
                    req.op = PortOp::Erase;
                    req.key = Key::fromUint(pending[next_erase[p]++],
                                            kKeyBits);
                } else {
                    req.op = PortOp::Insert;
                    uint64_t v = pick.next64() & 0xffffffffu;
                    v = (v & ~uint64_t{1023}) |
                        (kColdBase + ((v >> 10) % kColdRows));
                    req.key = Key::fromUint(v, kKeyBits);
                    req.data = static_cast<uint64_t>(i) & 0xffffu;
                    pending.push_back(v);
                }
            } else {
                req.op = PortOp::Search;
                req.key = Key::fromUint(hot[p][zipf[p].next(pick)],
                                        kKeyBits);
            }
            stream.push_back(std::move(req));
        }
    }
    return stream;
}

/** Fields that must match between serial and parallel result streams. */
bool
sameResponse(const PortResponse &a, const PortResponse &b)
{
    return a.tag == b.tag && a.port == b.port && a.op == b.op &&
           a.ok == b.ok && a.hit == b.hit && a.data == b.data &&
           a.bucketsAccessed == b.bucketsAccessed && a.key == b.key;
}

struct SerialRun
{
    std::vector<std::vector<PortResponse>> perPort;
    uint64_t modeledCycles = 0; ///< one controller, everything chained
    double wallSeconds = 0.0;
};

SerialRun
runSerial(CaRamSubsystem &sys, const std::vector<PortRequest> &stream,
          const mem::MemTiming &timing)
{
    SerialRun run;
    run.perPort.resize(kPorts);
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t next = 0;
    while (true) {
        const std::span<const PortRequest> rest(stream.data() + next,
                                                stream.size() - next);
        next += sys.submitBatch(rest);
        sys.process();
        bool any = false;
        while (auto r = sys.fetchResult()) {
            any = true;
            run.modeledCycles += std::max(1u, r->bucketsAccessed) *
                                 std::max(1u, timing.minCycleGap);
            run.perPort[r->port].push_back(std::move(*r));
        }
        if (next >= stream.size() && !any)
            break;
    }
    run.wallSeconds =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        1e9;
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::size_t per_port = 50000;
    std::string json_path = "BENCH_result_cache.json";
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg == "--baseline" && i + 1 < argc)
            baseline_path = argv[++i];
        else
            per_port = std::strtoull(argv[i], nullptr, 10);
    }

    std::cout << "=== Extension: parallel search engine vs. serial "
                 "drain ===\n\n";
    const mem::MemTiming timing = mem::MemTiming::embeddedDram(200.0, 6);
    const std::vector<PortRequest> stream = buildStream(per_port);
    std::cout << kPorts << " databases, "
              << withCommas(kRecordsPerDb) << " records each, "
              << withCommas(stream.size())
              << " balanced search requests (" << withCommas(per_port)
              << " per port), eDRAM 200 MHz, n_mem 6\n\n";

    TextTable t({"engine", "queues", "modeled Msps", "speedup",
                 "analytic bound", "wall Msps", "results"});

    // --- serial drains: the port-queue split sweep ---
    SerialRun reference;
    for (bool split : {false, true}) {
        auto sys = buildSubsystem(split, 4096);
        SerialRun run = runSerial(*sys, stream, timing);
        const double msps = static_cast<double>(stream.size()) /
                            run.modeledCycles * timing.clockMhz;
        double bound = 0.0;
        for (unsigned p = 0; p < kPorts; ++p)
            bound += sys->database(p).searchBandwidthMsps(timing);
        t.addRow({split ? "serial process(), split"
                        : "serial process(), shared",
                  split ? "4x4096" : "1x4096", fixed(msps, 2), "1.00x",
                  fixed(bound, 1),
                  fixed(stream.size() / run.wallSeconds / 1e6, 2),
                  "reference"});
        if (!split)
            reference = std::move(run);
    }

    // --- the engine: worker-count sweep ---
    double speedup_at_4 = 0.0;
    for (unsigned nworkers : {1u, 2u, 4u}) {
        auto sys = buildSubsystem(/*split=*/true, 4096);
        engine::EngineConfig cfg;
        cfg.workers = nworkers;
        cfg.queueCapacity = 4096;
        cfg.timing = timing;
        // Pin the result cache off in every non-cache section: these
        // sweeps measure worker scaling / row-fetch sharing / mutation
        // interference, and CARAM_RESULT_CACHE_ENTRIES in the environment
        // would short-circuit exactly the lookups they account.
        cfg.resultCacheEntries = 0;
        engine::ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        eng.submitBatch(stream);
        eng.drain();
        const engine::EngineReport rep = eng.report();

        // Per-port result streams must be bit-identical to the serial
        // drain's.
        uint64_t mismatches = 0;
        for (unsigned p = 0; p < kPorts; ++p) {
            std::size_t i = 0;
            while (auto r = eng.fetchResult(p)) {
                if (i >= reference.perPort[p].size() ||
                    !sameResponse(*r, reference.perPort[p][i]))
                    ++mismatches;
                ++i;
            }
            if (i != reference.perPort[p].size())
                ++mismatches;
        }
        if (nworkers == 4)
            speedup_at_4 = rep.modeledMsps > 0.0 && rep.modeledSerialMsps > 0.0
                ? rep.modeledMsps / rep.modeledSerialMsps
                : 0.0;
        t.addRow({"engine, " + std::to_string(nworkers) + " workers",
                  std::to_string(nworkers) + "x4096",
                  fixed(rep.modeledMsps, 2),
                  fixed(rep.modeledSpeedup, 2) + "x",
                  fixed(rep.analyticBoundMsps, 1),
                  fixed(rep.wallMsps, 2),
                  mismatches == 0 ? "identical"
                                  : withCommas(mismatches) + " diffs"});
        eng.stop();
    }
    t.print(std::cout);

    std::cout <<
        "\nmodeled Msps: lookups serialized per controller at n_mem "
        "cycles per bucket\naccess, independent controllers "
        "concurrent (the paper's per-bank model);\nwall Msps: host "
        "throughput, bounded by the physical cores of this machine.\n";
    // --- mutations in place: mixed 90/10 read/write traffic ---
    std::cout << "\n--- mutations in place (90/10 read/write, "
                 "4 workers) ---\n\n";
    double ro_msps = 0.0;
    double mixed_search_msps = 0.0;
    {
        const std::vector<PortRequest> mixed = buildMixedStream(per_port);
        std::size_t n_searches = 0;
        for (const PortRequest &r : mixed)
            n_searches += r.op == PortOp::Search;

        TextTable mt({"stream", "modeled Msps", "search-only Msps",
                      "wall Msps"});
        auto run = [&](const std::vector<PortRequest> &s,
                       std::size_t searches) {
            auto sys = buildSubsystem(/*split=*/true, 4096);
            engine::EngineConfig cfg;
            cfg.workers = 4;
            cfg.queueCapacity = 4096;
            cfg.timing = timing;
            cfg.resultCacheEntries = 0;
            engine::ParallelSearchEngine eng(*sys, cfg);
            eng.start();
            eng.submitBatch(s);
            eng.drain();
            const engine::EngineReport rep = eng.report();
            eng.stop();
            // Makespan covers every op; attribute the searches' share.
            const double search_msps = rep.completed > 0
                ? rep.modeledMsps * searches / rep.completed
                : 0.0;
            return std::pair<engine::EngineReport, double>(rep,
                                                           search_msps);
        };
        const auto ro = run(stream, stream.size());
        ro_msps = ro.first.modeledMsps;
        mt.addRow({"read-only", fixed(ro_msps, 2), fixed(ro.second, 2),
                   fixed(ro.first.wallMsps, 2)});
        const auto in_place = run(mixed, n_searches);
        mixed_search_msps = in_place.second;
        mt.addRow({"90/10 mixed", fixed(in_place.first.modeledMsps, 2),
                   fixed(mixed_search_msps, 2),
                   fixed(in_place.first.wallMsps, 2)});
        mt.print(std::cout);
        std::cout <<
            "\nsearch-only Msps: the searches' share of the modeled "
            "makespan; each mutation\noccupies its port's worker, so "
            "it delays that worker's searches.\n";
    }

    // --- the hot-key result cache: Zipf skew sweep ---
    std::cout << "\n--- hot-key result cache (Zipf traffic, 4 workers, "
                 "8192 entries x 4 ways) ---\n\n";
    double hit_rate_099 = 0.0, uplift_099 = 0.0;
    double hit_rate_120 = 0.0, uplift_120 = 0.0;
    double cached_mixed_ratio = 0.0;
    double churn_hit_rate_099 = 0.0;
    uint64_t churn_invalidations = 0;
    bool cache_identical = true;
    {
        struct ZipfRun
        {
            engine::EngineReport rep;
            std::vector<std::vector<PortResponse>> perPort;
            double maxLatencyUs = 0.0;
        };
        // An explicit resultCacheEntries (including the explicit 0 of
        // the uncached reference) always wins over the
        // CARAM_RESULT_CACHE_ENTRIES environment knob, so both legs
        // stay what they claim to be under the forced-cache CI leg.
        auto run = [&](const std::vector<PortRequest> &s,
                       std::size_t cache_entries) {
            auto sys = buildSubsystem(/*split=*/true, 4096);
            engine::EngineConfig cfg;
            cfg.workers = 4;
            cfg.queueCapacity = 4096;
            cfg.timing = timing;
            cfg.resultCacheEntries = cache_entries;
            cfg.resultCacheWays = 4;
            engine::ParallelSearchEngine eng(*sys, cfg);
            eng.start();
            eng.submitBatch(s);
            eng.drain();
            ZipfRun out;
            out.rep = eng.report();
            out.perPort.resize(kPorts);
            for (unsigned p = 0; p < kPorts; ++p) {
                out.maxLatencyUs = std::max(
                    out.maxLatencyUs, eng.portStats(p).latencyUs.max());
                while (auto r = eng.fetchResult(p))
                    out.perPort[p].push_back(std::move(*r));
            }
            eng.stop();
            return out;
        };

        TextTable zt({"zipf s", "hit rate", "uncached Msps",
                      "cached Msps", "uplift", "max us (un/cached)",
                      "results"});
        for (const double s : {0.0, 0.8, 0.99, 1.2}) {
            const std::vector<PortRequest> zstream =
                buildZipfStream(per_port, s);
            const ZipfRun plain = run(zstream, 0);
            const ZipfRun cached = run(zstream, 8192);

            bool same = true;
            for (unsigned p = 0; p < kPorts && same; ++p) {
                same = cached.perPort[p].size() ==
                       plain.perPort[p].size();
                for (std::size_t i = 0;
                     same && i < cached.perPort[p].size(); ++i)
                    same = sameResponse(cached.perPort[p][i],
                                        plain.perPort[p][i]);
            }
            cache_identical = cache_identical && same;

            const uint64_t probes =
                cached.rep.cacheHits + cached.rep.cacheMisses;
            const double hit_rate = probes > 0
                ? static_cast<double>(cached.rep.cacheHits) / probes
                : 0.0;
            const double uplift = plain.rep.modeledMsps > 0.0
                ? cached.rep.modeledMsps / plain.rep.modeledMsps
                : 0.0;
            if (s == 0.99) {
                hit_rate_099 = hit_rate;
                uplift_099 = uplift;
            }
            if (s == 1.2) {
                hit_rate_120 = hit_rate;
                uplift_120 = uplift;
            }
            zt.addRow({fixed(s, 2), percent(hit_rate),
                       fixed(plain.rep.modeledMsps, 2),
                       fixed(cached.rep.modeledMsps, 2),
                       fixed(uplift, 2) + "x",
                       fixed(plain.maxLatencyUs, 1) + " / " +
                           fixed(cached.maxLatencyUs, 1),
                       same ? "identical"
                            : "DIFF"});
        }
        zt.print(std::cout);
        std::cout <<
            "\nhit rate: cached searches served without a bucket "
            "access (zero modeled cycles);\nuplift: cached vs uncached "
            "modeled Msps on the identical stream.  8192 entries\n/ 4 "
            "ports / 4 ways = 512 sets per port over "
            << withCommas(kRecordsPerDb) << " resident keys.\n";

        // Invalidation cost: the same cache under 90/10 churn.  A
        // write bumps only the region generations its rows dirtied, so
        // searches whose candidate rows sit elsewhere keep hitting --
        // the gate is that the cache keeps the mixed search share
        // within 10% of read-only.
        const std::vector<PortRequest> mixed = buildMixedStream(per_port);
        std::size_t n_searches = 0;
        for (const PortRequest &r : mixed)
            n_searches += r.op == PortOp::Search;
        const ZipfRun churn = run(mixed, 8192);
        churn_invalidations = churn.rep.cacheInvalidations;
        const double churn_search_msps = churn.rep.completed > 0
            ? churn.rep.modeledMsps * n_searches / churn.rep.completed
            : 0.0;
        cached_mixed_ratio =
            ro_msps > 0.0 ? churn_search_msps / ro_msps : 0.0;
        const uint64_t churn_probes =
            churn.rep.cacheHits + churn.rep.cacheMisses;
        std::cout << "\n90/10 churn with the cache on: "
                  << fixed(churn_search_msps, 2) << " Msps search share ("
                  << percent(cached_mixed_ratio) << " of read-only), "
                  << withCommas(churn_invalidations) << " invalidations, "
                  << percent(churn_probes > 0
                                 ? static_cast<double>(
                                       churn.rep.cacheHits) /
                                       churn_probes
                                 : 0.0)
                  << " hit rate under churn\n";

        // Hot keys under churn: Zipf s=0.99 searches with the same
        // 90/10 write mix.  The writes land on cold rows, so regional
        // invalidation keeps the hot-key entries servable; whole-port
        // generations scored ~0% here.
        const std::vector<PortRequest> zchurn =
            buildZipfChurnStream(per_port, 0.99);
        const ZipfRun zc_plain = run(zchurn, 0);
        const ZipfRun zc = run(zchurn, 8192);
        bool zc_same = true;
        for (unsigned p = 0; p < kPorts && zc_same; ++p) {
            zc_same =
                zc.perPort[p].size() == zc_plain.perPort[p].size();
            for (std::size_t i = 0; zc_same && i < zc.perPort[p].size();
                 ++i)
                zc_same = sameResponse(zc.perPort[p][i],
                                       zc_plain.perPort[p][i]);
        }
        cache_identical = cache_identical && zc_same;
        const uint64_t zc_probes = zc.rep.cacheHits + zc.rep.cacheMisses;
        churn_hit_rate_099 = zc_probes > 0
            ? static_cast<double>(zc.rep.cacheHits) / zc_probes
            : 0.0;
        std::cout << "Zipf s=0.99 searches under the same churn: "
                  << percent(churn_hit_rate_099)
                  << " hit rate (row-granular invalidation), "
                  << withCommas(zc.rep.cacheInvalidations)
                  << " invalidations, results "
                  << (zc_same ? "identical" : "DIFF") << "\n";
    }

    std::cout << "\n--- per-port latency (engine, 4 workers, wall "
                 "clock) ---\n";
    {
        auto sys = buildSubsystem(/*split=*/true, 4096);
        engine::EngineConfig cfg;
        cfg.workers = 4;
        cfg.queueCapacity = 4096;
        cfg.timing = timing;
        cfg.resultCacheEntries = 0;
        engine::ParallelSearchEngine eng(*sys, cfg);
        eng.start();
        eng.submitBatch(stream);
        eng.drain();
        TextTable lt({"port", "completed", "hit rate", "mean us",
                      "max us", "mean buckets/search"});
        for (unsigned p = 0; p < kPorts; ++p) {
            const engine::PortStats &s = eng.portStats(p);
            lt.addRow({std::to_string(p), withCommas(s.completed),
                       percent(static_cast<double>(s.hits) /
                               s.completed),
                       fixed(s.latencyUs.mean(), 1),
                       fixed(s.latencyUs.max(), 1),
                       fixed(s.bucketsAccessed.mean(), 3)});
        }
        lt.print(std::cout);
    }

    bench::Gates gates;
    const auto gate = [&gates](bool pass, const std::string &line) {
        gates.gate(pass, line);
    };
    std::cout << "\n";
    gate(speedup_at_4 >= 3.0,
         fixed(speedup_at_4, 2) +
             "x aggregate modeled throughput at 4 workers (>= 3x "
             "target)");
    gates.info("mixed 90/10 search share " +
               fixed(mixed_search_msps, 2) + " Msps with mutations in "
               "place, " +
               percent(ro_msps > 0.0 ? mixed_search_msps / ro_msps
                                     : 0.0) +
               " of read-only " + fixed(ro_msps, 2) + " Msps");
    gate(hit_rate_099 >= 0.60,
         percent(hit_rate_099) +
             " cache hit rate at Zipf s=0.99 (>= 60% target)");
    gate(uplift_099 >= 1.5,
         fixed(uplift_099, 2) +
             "x modeled search Msps uplift at Zipf s=0.99 (>= 1.5x "
             "target)");
    gate(cache_identical,
         "cached result streams bit-identical to the uncached engine");
    gate(cached_mixed_ratio >= 0.9,
         "90/10 churn search share with the cache on at " +
             percent(cached_mixed_ratio) +
             " of read-only (>= 90% target)");
    gate(churn_hit_rate_099 >= 0.50,
         percent(churn_hit_rate_099) +
             " cache hit rate at Zipf s=0.99 under 90/10 churn "
             "(>= 50% target; whole-port invalidation scored ~0%)");

    std::ostringstream json;
    json << "{\n  \"bench\": \"result_cache\",\n"
         << "  \"searches_per_port\": " << per_port << ",\n"
         << "  \"zipf_hit_rate_s099\": " << fixed(hit_rate_099, 4)
         << ",\n  \"zipf_uplift_s099\": " << fixed(uplift_099, 2)
         << ",\n  \"zipf_hit_rate_s120\": " << fixed(hit_rate_120, 4)
         << ",\n  \"zipf_uplift_s120\": " << fixed(uplift_120, 2)
         << ",\n  \"cached_mixed_search_ratio\": "
         << fixed(cached_mixed_ratio, 3)
         << ",\n  \"churn_hit_rate_s099\": "
         << fixed(churn_hit_rate_099, 4)
         << ",\n  \"churn_invalidations\": " << churn_invalidations
         << "\n}\n";
    std::ofstream(json_path) << json.str();

    if (!baseline_path.empty()) {
        const std::string base = bench::readFile(baseline_path);
        const double base_per_port =
            bench::baselineField(base, "searches_per_port");
        const double base_hit =
            bench::baselineField(base, "zipf_hit_rate_s099");
        const double base_uplift =
            bench::baselineField(base, "zipf_uplift_s099");
        const double base_churn_hit =
            bench::baselineField(base, "churn_hit_rate_s099");
        if (base_hit > 0.0 && base_uplift > 0.0 &&
            base_per_port == static_cast<double>(per_port)) {
            gate(hit_rate_099 >= 0.9 * base_hit,
                 "s=0.99 hit rate within 10% of baseline (" +
                     percent(base_hit) + ")");
            gate(uplift_099 >= 0.9 * base_uplift,
                 "s=0.99 uplift within 10% of baseline (" +
                     fixed(base_uplift, 2) + "x)");
            if (base_churn_hit > 0.0)
                gate(churn_hit_rate_099 >= 0.9 * base_churn_hit,
                     "s=0.99 churn hit rate within 10% of baseline (" +
                         percent(base_churn_hit) + ")");
        } else {
            std::cout << "baseline skipped (different search count or "
                         "unreadable)\n";
        }
    }
    return gates.rc();
}
