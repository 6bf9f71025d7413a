/**
 * @file
 * Extension: the self-managing online maintenance engine
 * (EngineConfig::maintenance / engine/maintenance_engine.h), which
 * migrates spilled records toward their home buckets, trims hollowed
 * probe reach and adopts overflow-slice records back into the main
 * table -- incrementally, on each port's owning worker, with no drain
 * and no whole-table rebuild.
 *
 * Section 1 measures the foreground cost: the same saturated mixed
 * churn stream (search-heavy with fresh inserts and erases across 4
 * ports) runs through an identical engine with maintenance off and
 * on.  Under saturation the planner's inflight backoff suppresses
 * maintenance steps, so modeled foreground throughput with the
 * planner armed must stay within 10% of the maintenance-free run --
 * the engine never taxes a busy table.  Result streams are verified
 * against the strictly serial oracle (bucketsAccessed excluded:
 * background migration legitimately shortens probe chains).
 *
 * Section 2 measures the payoff: skewed insert/erase churn strands
 * spilled survivors far from hollowed home rows, inflating AMAL.  An
 * idle engine with maintenance on must walk AMAL back to within 5% of
 * what a full offline rebuild() of the same live set achieves --
 * recovering >= 1.5x of the excess -- while every live key keeps
 * answering with its data.
 *
 * Usage: ext_maintenance [ops_per_port]
 *                        [--json PATH] [--baseline PATH]
 *        (default 20000 ops per port)
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/subsystem.h"
#include "engine/parallel_search_engine.h"
#include "hash/bit_select.h"

using namespace caram;
using namespace caram::core;

namespace {

constexpr unsigned kPorts = 4;
constexpr unsigned kKeyBits = 32;
constexpr uint64_t kRecordsPerDb = 2000; // ~24% load in 1024x8 tables

DatabaseConfig
churnDbConfig(const std::string &name)
{
    DatabaseConfig cfg;
    cfg.name = name;
    cfg.sliceShape.indexBits = 10; // 1024 buckets
    cfg.sliceShape.logicalKeyBits = kKeyBits;
    cfg.sliceShape.ternary = false;
    cfg.sliceShape.slotsPerBucket = 8;
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
buildChurnSubsystem()
{
    auto sys = std::make_unique<CaRamSubsystem>(8192, 8192, true);
    Rng rng(97531);
    for (unsigned p = 0; p < kPorts; ++p) {
        Database &db =
            sys->addDatabase(churnDbConfig("mx" + std::to_string(p)));
        for (uint64_t i = 0; i < kRecordsPerDb; ++i) {
            const uint64_t v = rng.next64() & 0xffffffffu;
            db.insert(Record{Key::fromUint(v, kKeyBits), v & 0xffffu});
        }
    }
    return sys;
}

/**
 * Search-heavy mixed churn, port-interleaved: 60% searches (2/3
 * replays of live keys, 1/3 fresh misses), fresh-key inserts, and
 * erases of the oldest insert once a per-port backlog fills, so table
 * load holds steady and the stream is reproducible.
 */
std::vector<PortRequest>
buildMixedStream(std::size_t ops_per_port)
{
    std::vector<PortRequest> stream;
    stream.reserve(ops_per_port * kPorts);
    std::vector<std::vector<uint64_t>> pool(kPorts);
    std::vector<std::size_t> next_erase(kPorts, 0);
    Rng setup(97531); // replay the seeding stream for live-key picks
    for (unsigned p = 0; p < kPorts; ++p)
        for (uint64_t i = 0; i < kRecordsPerDb; ++i)
            pool[p].push_back(setup.next64() & 0xffffffffu);
    Rng pick(2468);
    uint64_t tag = 0;
    for (std::size_t i = 0; i < ops_per_port; ++i) {
        for (unsigned p = 0; p < kPorts; ++p) {
            PortRequest req;
            req.port = p;
            req.tag = ++tag;
            auto &pending = pool[p];
            const unsigned roll = pick.below(100);
            if (roll < 60) {
                req.op = PortOp::Search;
                if (pick.below(3) < 2 &&
                    next_erase[p] < pending.size()) {
                    const std::size_t live =
                        next_erase[p] +
                        pick.below(pending.size() - next_erase[p]);
                    req.key = Key::fromUint(pending[live], kKeyBits);
                } else {
                    req.key = Key::fromUint(pick.next64() & 0xffffffffu,
                                            kKeyBits);
                }
            } else if (roll < 80 ||
                       pending.size() - next_erase[p] < 256) {
                req.op = PortOp::Insert;
                const uint64_t v = pick.next64() & 0xffffffffu;
                req.key = Key::fromUint(v, kKeyBits);
                req.data = v & 0xffffu;
                pending.push_back(v);
            } else {
                req.op = PortOp::Erase;
                req.key =
                    Key::fromUint(pending[next_erase[p]++], kKeyBits);
            }
            stream.push_back(std::move(req));
        }
    }
    return stream;
}

/** The strictly serial oracle: submission order, one at a time. */
std::vector<std::vector<PortResponse>>
serialOracle(CaRamSubsystem &sys, const std::vector<PortRequest> &stream)
{
    std::vector<std::vector<PortResponse>> per_port(sys.databaseCount());
    for (const PortRequest &req : stream)
        per_port[req.port].push_back(
            executePortRequest(sys.database(req.port), req));
    return per_port;
}

/**
 * Result identity minus bucketsAccessed: background migration
 * shortens probe chains mid-stream, so access counts may differ while
 * hit/data/key/ok must not.
 */
bool
sameAnswer(const PortResponse &a, const PortResponse &b)
{
    return a.tag == b.tag && a.port == b.port && a.op == b.op &&
           a.ok == b.ok && a.hit == b.hit && a.data == b.data &&
           a.key == b.key;
}

struct ChurnRun
{
    engine::EngineReport rep;
    uint64_t mismatches = 0;
};

ChurnRun
runChurn(const std::vector<PortRequest> &stream,
         const std::vector<std::vector<PortResponse>> &want,
         const mem::MemTiming &timing, bool maintenance)
{
    auto sys = buildChurnSubsystem();
    engine::EngineConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 8192;
    cfg.timing = timing;
    cfg.batchSize = 8;
    cfg.resultCacheEntries = 0;
    cfg.maintenance = maintenance;
    engine::ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    eng.submitBatch(stream);
    eng.drain();
    ChurnRun out;
    out.rep = eng.report();
    for (unsigned p = 0; p < kPorts; ++p) {
        std::size_t i = 0;
        while (auto r = eng.fetchResult(p)) {
            if (i >= want[p].size() || !sameAnswer(*r, want[p][i]))
                ++out.mismatches;
            ++i;
        }
        if (i != want[p].size())
            ++out.mismatches;
    }
    eng.stop();
    return out;
}

// --- section 2 fixture: skewed churn that strands spilled records ---

// 6 keys per bucket vs 4 home slots over 24 adjacent buckets: the
// per-bucket surplus of 2 cascades spills ~12 rows past the cluster,
// comfortably inside the 16-row probe window.
constexpr unsigned kAmalBuckets = 24;
constexpr unsigned kAmalRounds = 6;

DatabaseConfig
amalDbConfig()
{
    DatabaseConfig cfg;
    cfg.name = "amal";
    cfg.sliceShape.indexBits = 8; // 256 buckets
    cfg.sliceShape.logicalKeyBits = kKeyBits;
    cfg.sliceShape.ternary = false;
    cfg.sliceShape.slotsPerBucket = 4;
    cfg.sliceShape.dataBits = 16;
    cfg.sliceShape.maxProbeDistance = 16;
    cfg.indexFactory = [](const SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        return std::make_unique<hash::LowBitsIndex>(eff.logicalKeyBits,
                                                    eff.indexBits);
    };
    return cfg;
}

/**
 * Pile kAmalRounds keys onto each of the first kAmalBuckets buckets
 * (spilling past the 4 home slots), then erase every other insert.
 * Survivors include spilled records whose home rows now have free
 * slots -- stale placements a rebuild would repack and the
 * maintenance engine must migrate home online.  Returns the live key
 * values.
 */
std::vector<uint64_t>
skewedFill(Database &db)
{
    std::vector<uint64_t> all, live;
    for (unsigned b = 0; b < kAmalBuckets; ++b)
        for (unsigned r = 0; r < kAmalRounds; ++r) {
            const uint64_t v =
                (static_cast<uint64_t>(b * kAmalRounds + r + 1) << 8) |
                b;
            if (db.insert(Record{Key::fromUint(v, kKeyBits),
                                 v & 0xffffu}))
                all.push_back(v);
        }
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (i % 2 == 0)
            db.erase(Key::fromUint(all[i], kKeyBits));
        else
            live.push_back(all[i]);
    }
    return live;
}

/** Poll the live report until @p pred holds or the deadline passes. */
template <typename Pred>
bool
awaitReport(engine::ParallelSearchEngine &eng, Pred pred,
            int deadline_ms)
{
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
               .count() < deadline_ms) {
        if (pred(eng.report()))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred(eng.report());
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::size_t per_port = 20000;
    std::string json_path = "BENCH_maintenance.json";
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

    std::cout << "=== Extension: self-managing online maintenance "
                 "engine ===\n\n";
    const mem::MemTiming timing = mem::MemTiming::embeddedDram(200.0, 6);

    // --- section 1: foreground cost under saturated mixed churn ---
    std::cout << "--- foreground cost (saturated mixed churn, "
                 "4 workers, batch 8) ---\n\n";
    std::cout << kPorts << " databases, " << withCommas(kRecordsPerDb)
              << " records each, " << withCommas(per_port)
              << " mixed ops per port (60% search / 20% insert / "
                 "20% erase)\n\n";
    const std::vector<PortRequest> mixed = buildMixedStream(per_port);
    std::vector<std::vector<PortResponse>> want;
    {
        auto oracle = buildChurnSubsystem();
        want = serialOracle(*oracle, mixed);
    }
    TextTable ft({"maintenance", "modeled Msps", "wall Msps", "steps",
                  "backoffs", "results"});
    double msps_off = 0.0, msps_on = 0.0;
    uint64_t on_backoffs = 0, on_steps = 0;
    bool identical = true;
    for (const bool maint : {false, true}) {
        const ChurnRun run = runChurn(mixed, want, timing, maint);
        identical = identical && run.mismatches == 0;
        if (maint) {
            msps_on = run.rep.modeledMsps;
            on_steps = run.rep.maintenanceSteps;
            on_backoffs = run.rep.maintenanceBackoffs;
        } else {
            msps_off = run.rep.modeledMsps;
        }
        ft.addRow({maint ? "on" : "off", fixed(run.rep.modeledMsps, 2),
                   fixed(run.rep.wallMsps, 2),
                   withCommas(run.rep.maintenanceSteps),
                   withCommas(run.rep.maintenanceBackoffs),
                   run.mismatches == 0
                       ? "identical"
                       : withCommas(run.mismatches) + " diffs"});
    }
    ft.print(std::cout);
    const double churn_ratio =
        msps_off > 0.0 ? msps_on / msps_off : 0.0;
    std::cout <<
        "\nsaturated submission keeps inflight above the planner's "
        "backoff threshold, so\nmaintenance steps are suppressed until "
        "the stream tails off; modeled throughput\ncharges any step "
        "that does run to the port's owning worker.\n";

    // --- section 2: AMAL recovery on an idle engine, no drain ---
    std::cout << "\n--- AMAL recovery (skewed churn, idle engine, "
                 "2 workers) ---\n\n";
    auto amal_sys = std::make_unique<CaRamSubsystem>(256, 256, true);
    Database &adb = amal_sys->addDatabase(amalDbConfig());
    const std::vector<uint64_t> live = skewedFill(adb);
    const double amal_before = adb.amal();

    double amal_rebuilt = 0.0;
    {
        CaRamSubsystem twin_sys(256, 256, true);
        Database &twin = twin_sys.addDatabase(amalDbConfig());
        for (const uint64_t v : live)
            twin.insert(Record{Key::fromUint(v, kKeyBits), v & 0xffffu});
        twin.rebuild();
        amal_rebuilt = twin.amal();
    }

    engine::EngineConfig mcfg;
    mcfg.workers = 2;
    mcfg.queueCapacity = 1024;
    mcfg.timing = timing;
    mcfg.maintenance = true;
    engine::ParallelSearchEngine meng(*amal_sys, mcfg);
    meng.start();
    const bool converged = awaitReport(
        meng,
        [&](const engine::EngineReport &r) {
            return r.maintenanceSweeps >= 2 && r.rowsMigrated > 0 &&
                   r.amalAfter > 0.0 &&
                   r.amalAfter <= 1.05 * amal_rebuilt;
        },
        15000);
    const engine::EngineReport mrep = meng.report();
    meng.stop();
    const double amal_after = adb.amal();

    uint64_t lost = 0;
    for (const uint64_t v : live) {
        const SearchResult r = adb.search(Key::fromUint(v, kKeyBits));
        if (!r.hit || r.data != (v & 0xffffu))
            ++lost;
    }

    const double excess_before = amal_before - amal_rebuilt;
    const double excess_after = amal_after - amal_rebuilt;
    const double recovery =
        excess_before / std::max(excess_after, 0.01);

    TextTable at({"stage", "AMAL"});
    at.addRow({"after skewed churn", fixed(amal_before, 3)});
    at.addRow({"offline rebuild() twin", fixed(amal_rebuilt, 3)});
    at.addRow({"after online maintenance", fixed(amal_after, 3)});
    at.print(std::cout);
    std::cout << "\nsweeps " << mrep.maintenanceSweeps
              << ", rows migrated " << mrep.rowsMigrated
              << ", reach trims " << mrep.reachTrims
              << ", steps " << mrep.maintenanceSteps
              << "; no drain, no rebuild on the live table\n";

    bench::Gates gates;
    std::cout << "\n";
    gates.gate(churn_ratio >= 0.9,
               fixed(churn_ratio, 3) +
                   "x modeled churn throughput with maintenance armed "
                   "vs off (>= 0.9x target)");
    gates.gate(on_backoffs > 0,
               "planner backed off under saturated foreground load (" +
                   withCommas(on_backoffs) + " backoffs, " +
                   withCommas(on_steps) + " steps)");
    gates.gate(identical,
               "result streams match the serial oracle "
               "(bucketsAccessed excluded)");
    gates.gate(converged && amal_after <= 1.05 * amal_rebuilt,
               "online AMAL " + fixed(amal_after, 3) +
                   " within 5% of offline rebuild " +
                   fixed(amal_rebuilt, 3));
    gates.gate(recovery >= 1.5,
               fixed(recovery, 1) +
                   "x of the excess AMAL recovered without a drain "
                   "(>= 1.5x target)");
    gates.gate(lost == 0, "every live key still answers with its data "
                          "after maintenance");

    std::ostringstream json;
    json << "{\n  \"bench\": \"maintenance\",\n"
         << "  \"ops_per_port\": " << per_port << ",\n"
         << "  \"churn_msps_ratio\": " << fixed(churn_ratio, 3)
         << ",\n  \"amal_before\": " << fixed(amal_before, 3)
         << ",\n  \"amal_rebuilt\": " << fixed(amal_rebuilt, 3)
         << ",\n  \"amal_after\": " << fixed(amal_after, 3) << "\n}\n";
    std::ofstream(json_path) << json.str();

    if (!baseline_path.empty()) {
        const std::string base = bench::readFile(baseline_path);
        const double base_ops =
            bench::baselineField(base, "ops_per_port");
        const double base_ratio =
            bench::baselineField(base, "churn_msps_ratio");
        const double base_after =
            bench::baselineField(base, "amal_after");
        if (base_ratio > 0.0 &&
            base_ops == static_cast<double>(per_port)) {
            gates.gate(churn_ratio >= 0.9 * base_ratio,
                       "churn throughput ratio within 10% of baseline "
                       "(" + fixed(base_ratio, 3) + "x)");
            gates.gate(base_after > 0.0 &&
                           amal_after <= 1.1 * base_after,
                       "recovered AMAL within 10% of baseline (" +
                           fixed(base_after, 3) + ")");
        } else {
            std::cout << "baseline skipped (different op count or "
                         "unreadable)\n";
        }
    }
    return gates.rc();
}
