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
 * Usage: ext_parallel_engine [searches_per_port]
 *        (default 50000 searches per port)
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <span>
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
    const std::size_t per_port =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;

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

    std::cout << "\n--- per-port latency (engine, 4 workers, wall "
                 "clock) ---\n";
    {
        auto sys = buildSubsystem(/*split=*/true, 4096);
        engine::EngineConfig cfg;
        cfg.workers = 4;
        cfg.queueCapacity = 4096;
        cfg.timing = timing;
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
    std::cout << "\n";
    gates.gate(speedup_at_4 >= 3.0,
               fixed(speedup_at_4, 2) +
                   "x aggregate modeled throughput at 4 workers (>= 3x "
                   "target)");
    gates.info("mixed 90/10 search share " +
               fixed(mixed_search_msps, 2) + " Msps with mutations in "
               "place, " +
               percent(ro_msps > 0.0 ? mixed_search_msps / ro_msps
                                     : 0.0) +
               " of read-only " + fixed(ro_msps, 2) + " Msps");
    return gates.rc();
}
