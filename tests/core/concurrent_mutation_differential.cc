/**
 * @file
 * Randomized differential harness for mutations in the threaded engine:
 * mixed Search/Insert/Erase/Rebuild streams run through a multi-worker
 * engine, where each port's owning worker executes its mutations in
 * place while other workers keep serving their own ports, against the
 * strictly serial subsystem oracle executing the identical stream in
 * submission order.
 *
 * The contract under test: running ports on different workers changes
 * *when* a mutation executes relative to other ports' traffic, never
 * what any request computes or the order a port's own responses come
 * back in.  So for every port, the engine's FIFO response stream must
 * equal the oracle's port-filtered subsequence field for field (tag,
 * ok, hit, data, key, bucketsAccessed), and the final tables must
 * agree on every key the stream ever touched.  Swept over worker
 * counts x batch widths x key spaces (binary probing, and ternary
 * multi-home with row fan-out forced on, so shard stealing interleaves
 * with the owners' mutations).  ci_tsan.sh runs this suite under TSan.
 */

#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/subsystem.h"
#include "engine/parallel_search_engine.h"
#include "hash/bit_select.h"

namespace caram::engine {
namespace {

using core::CaRamSubsystem;
using core::DatabaseConfig;
using core::OverflowPolicy;
using core::PortOp;
using core::PortRequest;
using core::PortResponse;
using core::Record;

struct Variant
{
    const char *name;
    unsigned keyBits;
    unsigned indexBits;
    bool ternary;
    std::vector<unsigned> taps;
};

Variant
binaryVariant()
{
    return Variant{"binary", 32, 6, false, {0, 5, 11, 17, 22, 28}};
}

Variant
ternaryVariant()
{
    return Variant{"ternary", 40,   7,
                   true,      {0, 5, 11, 17, 22, 28, 33}};
}

DatabaseConfig
dbConfig(const Variant &v, const std::string &name)
{
    DatabaseConfig cfg;
    cfg.name = name;
    cfg.sliceShape.indexBits = v.indexBits;
    cfg.sliceShape.logicalKeyBits = v.keyBits;
    cfg.sliceShape.ternary = v.ternary;
    cfg.sliceShape.slotsPerBucket = 4;
    cfg.sliceShape.dataBits = 16;
    cfg.sliceShape.maxProbeDistance = 8;
    cfg.overflow = OverflowPolicy::Probing;
    const std::vector<unsigned> taps = v.taps;
    cfg.indexFactory = [taps](const core::SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        std::vector<unsigned> use(taps.begin(),
                                  taps.begin() + eff.indexBits);
        return std::make_unique<hash::BitSelectIndex>(
            eff.logicalKeyBits, std::move(use));
    };
    return cfg;
}

Key
randomKey(Rng &rng, const Variant &v, double care_p)
{
    Key k(v.keyBits);
    for (unsigned p = 0; p < v.keyBits; ++p)
        k.setBitAt(p, rng.chance(0.5), !v.ternary || rng.chance(care_p));
    return k;
}

std::unique_ptr<CaRamSubsystem>
buildSubsystem(const Variant &v, unsigned nports, const char *tag)
{
    auto sys = std::make_unique<CaRamSubsystem>(1024, 1024, true);
    Rng rng(4242);
    for (unsigned p = 0; p < nports; ++p) {
        auto &db = sys->addDatabase(dbConfig(
            v, std::string(v.name) + "-" + tag + std::to_string(p)));
        // A seeded base population so early searches and erases hit.
        for (int i = 0; i < 60; ++i)
            db.insert(Record{randomKey(rng, v, 0.97),
                             static_cast<uint64_t>(i)});
    }
    return sys;
}

/**
 * A seeded mixed stream over @p nports ports.  Insert keys are drawn
 * near-fully-specified (bounded duplication); erase and most search
 * keys replay earlier inserts so mutations keep landing on live rows;
 * ternary search keys sometimes widen a tap to fan out across homes.
 */
std::vector<PortRequest>
mixedStream(const Variant &v, unsigned nports, std::size_t total,
            uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<Key>> inserted(nports);
    std::vector<PortRequest> stream;
    uint64_t tag = 0;
    for (std::size_t i = 0; i < total; ++i) {
        PortRequest req;
        req.port = static_cast<unsigned>(rng.below(nports));
        req.tag = ++tag;
        auto &pop = inserted[req.port];
        const double roll = rng.uniform();
        if (roll < 0.10) {
            req.op = PortOp::Insert;
            req.key = randomKey(rng, v, 0.97);
            req.data = rng.below(1u << 16);
            pop.push_back(req.key);
        } else if (roll < 0.16 && !pop.empty()) {
            req.op = PortOp::Erase;
            req.key = pop[rng.below(pop.size())];
        } else if (roll < 0.18) {
            req.op = PortOp::Rebuild;
        } else {
            req.op = PortOp::Search;
            req.key = !pop.empty() && rng.chance(0.5)
                ? pop[rng.below(pop.size())]
                : randomKey(rng, v, 0.95);
            if (v.ternary && rng.chance(0.35)) {
                // Widen 1-3 taps: multi-home lookups that the forced
                // fan-out threshold routes through the shard queue.
                const unsigned clear =
                    static_cast<unsigned>(rng.inRange(1, 3));
                for (unsigned c = 0; c < clear; ++c)
                    req.key.setBitAt(v.taps[rng.below(v.taps.size())],
                                     false, false);
            }
        }
        stream.push_back(std::move(req));
    }
    return stream;
}

/** Execute the stream strictly serially, in submission order.  The
 *  forced-filter CI leg (CARAM_PREFILTER=1) enables pre-filter
 *  consultation on the engine's slices only; mirror it onto the
 *  engine-less oracle so the bucketsAccessed comparison holds on both
 *  sides of the differential. */
std::vector<std::vector<PortResponse>>
serialOracle(CaRamSubsystem &sys, const std::vector<PortRequest> &stream)
{
    if (const char *env = std::getenv("CARAM_PREFILTER");
        env && std::string_view(env) == "1") {
        for (std::size_t p = 0; p < sys.databaseCount(); ++p)
            sys.database(static_cast<unsigned>(p))
                .setPrefilterEnabled(true);
    }
    std::vector<std::vector<PortResponse>> per_port(sys.databaseCount());
    for (const PortRequest &req : stream)
        per_port[req.port].push_back(
            core::executePortRequest(sys.database(req.port), req));
    return per_port;
}

void
expectSameResponse(const PortResponse &got, const PortResponse &want,
                   std::size_t index)
{
    ASSERT_EQ(got.tag, want.tag) << "port " << want.port << " response "
                                 << index;
    EXPECT_EQ(got.op, want.op);
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.hit, want.hit);
    EXPECT_EQ(got.data, want.data);
    EXPECT_EQ(got.bucketsAccessed, want.bucketsAccessed);
    EXPECT_TRUE(got.key == want.key);
}

void
runDifferential(const Variant &v, unsigned nports, unsigned workers,
                std::size_t batch_size, unsigned fanout_min,
                uint64_t seed)
{
    SCOPED_TRACE(::testing::Message()
                 << "variant " << v.name << " workers " << workers
                 << " batch " << batch_size << " fanoutMin "
                 << fanout_min << " seed " << seed);
    auto oracle_sys = buildSubsystem(v, nports, "oracle");
    auto subject_sys = buildSubsystem(v, nports, "subject");
    const std::vector<PortRequest> stream =
        mixedStream(v, nports, 3000, seed);

    const auto want = serialOracle(*oracle_sys, stream);

    EngineConfig cfg;
    cfg.workers = workers;
    cfg.batchSize = batch_size;
    cfg.rowFanoutMin = fanout_min;
    ParallelSearchEngine eng(*subject_sys, cfg);
    eng.start();
    ASSERT_EQ(eng.submitBatch(stream), stream.size());
    eng.drain();
    eng.stop();

    for (unsigned p = 0; p < nports; ++p) {
        std::vector<PortResponse> got;
        while (auto r = eng.fetchResult(p))
            got.push_back(std::move(*r));
        ASSERT_EQ(got.size(), want[p].size()) << "port " << p;
        for (std::size_t i = 0; i < got.size(); ++i) {
            expectSameResponse(got[i], want[p][i], i);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

    // Final tables agree record for record, not just response for
    // response: every key the stream touched resolves identically.
    for (unsigned p = 0; p < nports; ++p) {
        auto &sdb = subject_sys->database(p);
        auto &odb = oracle_sys->database(p);
        ASSERT_EQ(sdb.size(), odb.size()) << "port " << p;
        for (const PortRequest &req : stream) {
            if (req.port != p || req.op == PortOp::Rebuild)
                continue;
            const auto a = sdb.search(req.key);
            const auto b = odb.search(req.key);
            ASSERT_EQ(a.hit, b.hit)
                << "port " << p << " key " << req.key.toString();
            if (a.hit) {
                ASSERT_EQ(a.data, b.data);
                ASSERT_TRUE(a.key == b.key);
            }
        }
    }
}

TEST(ConcurrentMutationDifferential, BinaryTwoWorkersSerialRuns)
{
    runDifferential(binaryVariant(), 4, 2, 1, 0, 0xc0ffee01);
}

TEST(ConcurrentMutationDifferential, BinaryTwoWorkersBatched)
{
    runDifferential(binaryVariant(), 4, 2, 8, 0, 0xc0ffee02);
}

TEST(ConcurrentMutationDifferential, BinaryFourWorkersSerialRuns)
{
    runDifferential(binaryVariant(), 6, 4, 1, 0, 0xc0ffee03);
}

TEST(ConcurrentMutationDifferential, BinaryFourWorkersBatched)
{
    runDifferential(binaryVariant(), 6, 4, 8, 0, 0xc0ffee04);
}

TEST(ConcurrentMutationDifferential, TernaryFanoutBatched)
{
    // Row fan-out forced down to 2 homes: shard stealing, insert runs
    // and the owners' in-place mutations all interleave in one stream.
    runDifferential(ternaryVariant(), 4, 4, 8, 2, 0xc0ffee05);
}

TEST(ConcurrentMutationDifferential, MorePortsThanWorkers)
{
    // Port count far above worker count: each worker owns several
    // ports, so one port's mutations interleave with its siblings'
    // runs on the same thread.
    runDifferential(binaryVariant(), 9, 2, 4, 0, 0xc0ffee06);
}

} // namespace
} // namespace caram::engine
