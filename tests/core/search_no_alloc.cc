/**
 * @file
 * Regression test that steady-state search loops perform no heap
 * allocation.
 *
 * The word-parallel match path packs the search key into per-slice
 * scratch (MatchProcessor::PackedKey), gathers candidate home rows into
 * a reused scratch vector, and compares raw row words in place -- so
 * after a warm-up lookup has sized the scratch, search(), searchTraced()
 * (with a reserved trace vector), search() behind prefetchHome() hints
 * (the engine's prefetch pipeline), countMatching() and the candidate
 * expansion of ternary keys with don't-care hash bits must all be
 * allocation-free, and so must erase()'s packed equality scan.
 * So must a warmed-up closed-loop round through a threaded
 * ParallelSearchEngine, on the client and the worker alike.  Counted
 * with a global operator new/delete hook, which sees every thread.
 */

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/slice.h"
#include "core/subsystem.h"
#include "engine/parallel_search_engine.h"
#include "hash/bit_select.h"

namespace {

// Plain global counting hook.  libstdc++ containers allocate through
// the plain forms (possibly via the aligned overloads on over-aligned
// types), so counting every operator new form catches vector growth,
// Key boxing, and string construction on the measured paths.
std::atomic<uint64_t> g_allocs{0};

} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    ++g_allocs;
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace caram::core {
namespace {

/** Allocations performed by @p body, after it already ran once. */
template <typename Fn>
uint64_t
allocationsIn(Fn &&body)
{
    body(); // warm-up: sizes all scratch buffers
    const uint64_t before = g_allocs.load();
    body();
    return g_allocs.load() - before;
}

struct Fixture
{
    SliceConfig cfg;
    std::unique_ptr<CaRamSlice> slice;
    std::vector<Key> keys;

    Fixture(unsigned key_bits, bool ternary, bool lpm, unsigned slots = 8)
    {
        cfg.indexBits = 6;
        cfg.logicalKeyBits = key_bits;
        cfg.ternary = ternary;
        cfg.lpm = lpm;
        cfg.slotsPerBucket = slots;
        cfg.dataBits = 16;
        cfg.maxProbeDistance = 8;
        cfg.validate();
        std::vector<unsigned> taps;
        for (unsigned i = 0; i < cfg.indexBits; ++i)
            taps.push_back(i * (key_bits / cfg.indexBits));
        slice = std::make_unique<CaRamSlice>(
            cfg,
            std::make_unique<hash::BitSelectIndex>(key_bits,
                                                   std::move(taps)));
        Rng rng(key_bits);
        for (int i = 0; i < 150; ++i) {
            Key k(key_bits);
            for (unsigned p = 0; p < key_bits; ++p)
                k.setBitAt(p, rng.chance(0.5),
                           !ternary || rng.chance(0.95));
            if (slice->insert(Record{k, rng.below(1u << 16)}).ok)
                keys.push_back(k);
        }
        EXPECT_GT(keys.size(), 50u);
    }
};

TEST(SearchNoAlloc, BinarySearchLoop)
{
    Fixture f(64, false, false);
    const uint64_t n = allocationsIn([&] {
        for (int i = 0; i < 1000; ++i)
            f.slice->search(f.keys[i % f.keys.size()]);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SearchNoAlloc, WideTernarySearchLoop)
{
    Fixture f(144, true, false);
    const uint64_t n = allocationsIn([&] {
        for (int i = 0; i < 1000; ++i)
            f.slice->search(f.keys[i % f.keys.size()]);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SearchNoAlloc, TernaryWildcardHashBitsSearchLoop)
{
    // Don't-care bits in hash positions: candidate expansion must stay
    // inside the per-slice scratch vector.
    Fixture f(65, true, false);
    std::vector<Key> wild = f.keys;
    for (Key &k : wild) {
        for (unsigned p = 0; p < 3; ++p)
            k.setBitAt(p, false, false);
    }
    const uint64_t n = allocationsIn([&] {
        for (int i = 0; i < 1000; ++i)
            f.slice->search(wild[i % wild.size()]);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SearchNoAlloc, LpmSearchLoop)
{
    Fixture f(64, true, true);
    const uint64_t n = allocationsIn([&] {
        for (int i = 0; i < 1000; ++i)
            f.slice->search(f.keys[i % f.keys.size()]);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SearchNoAlloc, WideRowLpmSearchLoop)
{
    // The IPv4 shape: 32-bit ternary LPM over 192-slot rows, which the
    // match kernels cover in three 64-slot chunks.
    Fixture f(32, true, true, 192);
    const uint64_t n = allocationsIn([&] {
        for (int i = 0; i < 1000; ++i)
            f.slice->search(f.keys[i % f.keys.size()]);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SearchNoAlloc, EraseLoop)
{
    // erase() packs into the per-slice scratch and scans rows with the
    // packed equality test.  Only the erases are counted: the reinsert
    // that keeps the table steady builds an InsertSummary.
    Fixture f(144, true, false);
    for (const Key &k : f.keys) { // warm-up: sizes the scratch
        f.slice->erase(k);
        ASSERT_TRUE(f.slice->insert(Record{k, 7}).ok);
    }
    uint64_t n = 0;
    for (int i = 0; i < 1000; ++i) {
        const Key &k = f.keys[i % f.keys.size()];
        const uint64_t before = g_allocs.load();
        const unsigned removed = f.slice->erase(k);
        n += g_allocs.load() - before;
        EXPECT_GE(removed, 1u);
        ASSERT_TRUE(f.slice->insert(Record{k, 7}).ok);
    }
    EXPECT_EQ(n, 0u);
}

TEST(SearchNoAlloc, TracedSearchWithReservedTrace)
{
    Fixture f(64, false, false);
    std::vector<uint64_t> trace;
    trace.reserve(1024); // caller-provided capacity, reused per lookup
    const uint64_t n = allocationsIn([&] {
        for (int i = 0; i < 1000; ++i) {
            trace.clear();
            f.slice->searchTraced(f.keys[i % f.keys.size()], trace);
        }
    });
    EXPECT_EQ(n, 0u);
}

/** The engine's prefetch pipeline on one slice: hint the key four
 *  ahead, then search the current one. */
void
pipelinedSearches(CaRamSlice &slice, const std::vector<Key> &stream,
                  int rounds)
{
    const std::size_t n = stream.size();
    for (int iter = 0; iter < rounds; ++iter) {
        for (std::size_t i = 0; i < n; ++i) {
            slice.prefetchHome(stream[(i + 4) % n]);
            (void)slice.search(stream[i]);
        }
    }
}

TEST(SearchNoAlloc, PrefetchedSearchLoop)
{
    // Binary keys: every hint computes an index and issues prefetches.
    Fixture f(64, false, false);
    const uint64_t n =
        allocationsIn([&] { pipelinedSearches(*f.slice, f.keys, 10); });
    EXPECT_EQ(n, 0u);
}

TEST(SearchNoAlloc, PrefetchedWildcardHashBitsLoop)
{
    // Multi-home keys: the hint is a no-op and the search walks every
    // candidate home out of the per-slice scratch.
    Fixture f(65, true, false);
    std::vector<Key> wild = f.keys;
    for (Key &k : wild) {
        for (unsigned p = 0; p < 3; ++p)
            k.setBitAt(p, false, false);
    }
    const uint64_t n =
        allocationsIn([&] { pipelinedSearches(*f.slice, wild, 10); });
    EXPECT_EQ(n, 0u);
}

TEST(SearchNoAlloc, PrefetchedLpmSearchLoop)
{
    Fixture f(64, true, true);
    const uint64_t n =
        allocationsIn([&] { pipelinedSearches(*f.slice, f.keys, 10); });
    EXPECT_EQ(n, 0u);
}

TEST(SearchNoAlloc, MassCountLoop)
{
    Fixture f(63, true, false);
    const uint64_t n = allocationsIn([&] {
        for (int i = 0; i < 20; ++i)
            f.slice->countMatching(f.keys[i % f.keys.size()]);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SearchNoAlloc, BulkIngestSteadyStateLoop)
{
    // Steady-state ingest: after one warm-up cycle has sized the
    // per-slice IngestScratch (row cache, placement log, apply
    // schedule, open-addressed row table), an insertBatch/erase cycle
    // runs allocation-free.  300 records crosses the kMaxIngestBatch
    // chunk boundary, so the scratch reuse across chunks is covered.
    Fixture f(64, false, false);
    Rng rng(4242);
    std::vector<Record> records;
    for (unsigned i = 0; i < 300; ++i)
        records.push_back(Record{Key::fromUint(rng.next64(), 64),
                                 rng.below(1u << 16)});
    const uint64_t n = allocationsIn([&] {
        f.slice->insertBatch(records);
        for (const Record &rec : records)
            f.slice->erase(rec.key);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SearchNoAlloc, MissHeavySearchLoop)
{
    // Mostly absent keys on the serial and pipelined paths: a miss
    // walks its whole chain without touching the heap.
    Fixture f(64, false, false);
    Rng rng(99);
    std::vector<Key> mixed = f.keys;
    for (int i = 0; i < 100; ++i)
        mixed.push_back(Key::fromUint(rng.next64(), 64)); // mostly absent
    const uint64_t n = allocationsIn([&] {
        for (int i = 0; i < 1000; ++i)
            f.slice->search(mixed[i % mixed.size()]);
        pipelinedSearches(*f.slice, mixed, 4);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SearchNoAlloc, IngestEraseCycleLoop)
{
    // A full cycle on one slice: bulk ingest, searches, an erase of
    // every record (each repairing its hole), searches that now miss.
    // Once the ingest scratch is warm, none of it touches the heap.
    // (Single-record insert() allocates its placement vector, so it is
    // not part of this loop.)
    Fixture f(64, false, false);
    Rng rng(4242);
    std::vector<Record> records;
    for (unsigned i = 0; i < 300; ++i)
        records.push_back(Record{Key::fromUint(rng.next64(), 64),
                                 rng.below(1u << 16)});
    const uint64_t n = allocationsIn([&] {
        f.slice->insertBatch(records);
        for (unsigned i = 0; i < 64; ++i)
            f.slice->search(records[i].key);
        for (const Record &rec : records)
            f.slice->erase(rec.key);
        for (unsigned i = 0; i < 64; ++i)
            f.slice->search(records[i].key);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SearchNoAlloc, ThreadedEngineRoundAfterWarmUp)
{
    // One closed-loop round through a threaded engine: submitBatch of
    // 1,024 searches, poll PortStats::completed until the round is
    // published, then fetchResult every response.  Once a warm-up round
    // has sized the submitter's tally, the worker's publish buffer and
    // the port's result stream, neither thread allocates.  (drain() is
    // not used: its load-stats refresh allocates.)
    CaRamSubsystem sys(1024, 1024);
    DatabaseConfig dc;
    dc.sliceShape.indexBits = 6;
    dc.sliceShape.logicalKeyBits = 64;
    dc.sliceShape.slotsPerBucket = 8;
    dc.sliceShape.dataBits = 16;
    dc.sliceShape.maxProbeDistance = 8;
    dc.indexFactory = [](const SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        return std::make_unique<hash::BitSelectIndex>(
            eff.logicalKeyBits,
            std::vector<unsigned>{0, 10, 20, 30, 40, 50});
    };
    Database &db = sys.addDatabase(dc);
    Rng rng(1024);
    std::vector<PortRequest> round(1024);
    for (std::size_t i = 0; i < round.size(); ++i) {
        const Key k = Key::fromUint(rng.next64(), 64);
        if (i % 4 != 0) // three in four keys are stored
            db.insert(Record{k, i & 0xffff});
        round[i].port = 0;
        round[i].op = PortOp::Search;
        round[i].key = k;
        round[i].tag = i;
    }

    engine::EngineConfig cfg;
    cfg.workers = 1;
    engine::ParallelSearchEngine eng(sys, cfg);
    eng.start();
    const std::atomic<uint64_t> &completed = eng.portStats(0).completed;
    uint64_t target = 0;
    uint64_t mismatches = 0;
    const uint64_t n = allocationsIn([&] {
        target += eng.submitBatch(round);
        while (completed.load(std::memory_order_acquire) < target)
            std::this_thread::yield();
        for (const PortRequest &req : round) {
            const std::optional<PortResponse> r = eng.fetchResult(0);
            if (!r || r->tag != req.tag)
                ++mismatches;
        }
    });
    eng.stop();
    EXPECT_EQ(n, 0u);
    EXPECT_EQ(target, 2 * round.size());
    EXPECT_EQ(mismatches, 0u);
}

// The hook itself must observe ordinary allocation, or every
// EXPECT_EQ(n, 0) above would pass vacuously.
TEST(SearchNoAlloc, HookCountsAllocations)
{
    const uint64_t n = allocationsIn([] {
        std::vector<uint64_t> v(257);
        ASSERT_EQ(v.size(), 257u);
    });
    EXPECT_GT(n, 0u);
}

} // namespace
} // namespace caram::core
