/**
 * @file
 * Erase-time repair (DESIGN.md section 4f) on binary, linear-probing
 * slices, checked against the raw array after every single erase:
 *
 *  - checkIntegrity() (aux used counts, record count);
 *  - the chain-full invariant: every row from a live record's home up
 *    to its row is full;
 *  - every home's reach equals the distance of its farthest live
 *    record (0 when it has none);
 *  - the distance histogram (and spilled count) equals a recount;
 *  - every live key answers with the copy a reference multimap expects.
 *    The reference keeps each key's surviving copies in chain order: a
 *    new copy's rank is read off the table once, at its insert, and
 *    from then on the reference only pops the front on erase -- so a
 *    repair that reordered duplicates, lost a record or stranded one
 *    out of reach fails here.
 *
 * Plus the erase multiplicity rule for all three overflow policies,
 * and a no-aging gate on a scaled flow-churn table.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/database.h"
#include "core/slice.h"
#include "core/timing_engine.h"
#include "hash/bit_select.h"
#include "hash/folding.h"

namespace caram::core {
namespace {

constexpr unsigned kKeyBits = 32;

SliceConfig
linearConfig(unsigned index_bits, unsigned slots, unsigned max_probe)
{
    SliceConfig cfg;
    cfg.indexBits = index_bits;
    cfg.logicalKeyBits = kKeyBits;
    cfg.ternary = false;
    cfg.slotsPerBucket = slots;
    cfg.dataBits = 16;
    cfg.probe = ProbePolicy::Linear;
    cfg.maxProbeDistance = max_probe;
    return cfg;
}

/** One live copy found by scanning the raw rows. */
struct Copy
{
    uint64_t row;
    unsigned slot;
    uint64_t home;
    unsigned dist;
    uint64_t key;
    uint64_t data;
};

std::vector<Copy>
scanCopies(CaRamSlice &s)
{
    const uint64_t rows = s.config().rows();
    std::vector<Copy> out;
    for (uint64_t row = 0; row < rows; ++row) {
        BucketView b = s.bucket(row);
        for (unsigned i = 0; i < b.slots(); ++i) {
            if (!b.slotValid(i))
                continue;
            const Key k = b.slotKey(i);
            const uint64_t home = s.homeRow(k);
            out.push_back({row, i, home,
                           static_cast<unsigned>((row + rows - home) % rows),
                           k.valueWords()[0], b.slotData(i)});
        }
    }
    return out;
}

/** Every structural property the repair maintains. */
void
expectRepaired(CaRamSlice &s)
{
    s.checkIntegrity();
    const uint64_t rows = s.config().rows();
    const unsigned slots = s.config().slotsPerBucket;
    std::vector<unsigned> farthest(rows, 0);
    std::vector<uint64_t> dist_count;
    uint64_t spilled = 0;
    for (const Copy &c : scanCopies(s)) {
        for (unsigned d = 0; d < c.dist; ++d) {
            ASSERT_EQ(s.bucket((c.home + d) % rows).usedCount(), slots)
                << "row " << (c.home + d) % rows << " has a hole inside the "
                << "chain of key " << c.key << " (home " << c.home
                << ", row " << c.row << ")";
        }
        farthest[c.home] = std::max(farthest[c.home], c.dist);
        if (dist_count.size() <= c.dist)
            dist_count.resize(c.dist + 1, 0);
        ++dist_count[c.dist];
        spilled += c.dist > 0 ? 1 : 0;
    }
    for (uint64_t h = 0; h < rows; ++h)
        ASSERT_EQ(s.bucket(h).reach(), farthest[h]) << "home " << h;
    const LoadStats st = s.loadStats();
    const auto &bins = st.distance.bins();
    for (std::size_t d = 0; d < std::max(bins.size(), dist_count.size());
         ++d) {
        const uint64_t want = d < dist_count.size() ? dist_count[d] : 0;
        const uint64_t got = d < bins.size() ? bins[d] : 0;
        ASSERT_EQ(got, want) << "distance " << d;
    }
    ASSERT_EQ(st.spilledRecords, spilled);
}

/**
 * Seeded insert/erase churn on one slice, every erase checked.  Keys
 * come from @p draw_key; with @p duplicates set, a fraction of the
 * inserts re-insert a live key (fresh data), so keys carry several
 * copies.
 */
class ChurnHarness
{
  public:
    ChurnHarness(std::unique_ptr<CaRamSlice> slice, uint64_t seed)
        : s_(std::move(slice)), rng_(seed)
    {
    }

    template <typename DrawKey>
    void
    run(DrawKey draw_key, double target_load, unsigned erases,
        bool duplicates)
    {
        const uint64_t capacity =
            s_->config().rows() * s_->config().slotsPerBucket;
        const auto target = static_cast<uint64_t>(target_load * capacity);
        while (s_->size() < target)
            insert(draw_key(rng_), duplicates);
        unsigned done = 0;
        while (done < erases) {
            const bool grow =
                s_->size() < target ? rng_.chance(0.7) : rng_.chance(0.3);
            if (grow && s_->size() < capacity) {
                insert(draw_key(rng_), duplicates);
                continue;
            }
            // Mostly live keys; sometimes one that is absent.
            const uint64_t key = live_.empty() || rng_.chance(0.05)
                ? draw_key(rng_)
                : live_[rng_.below(live_.size())];
            eraseAndCheck(key);
            ++done;
            if (::testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_GT(moved_, 0u) << "the churn never exercised a repair";
    }

  private:
    void
    insert(uint64_t key, bool duplicates)
    {
        if (duplicates && !live_.empty() && rng_.chance(0.3))
            key = live_[rng_.below(live_.size())];
        const uint64_t data = ++dataSeq_ & 0xffff;
        const InsertSummary ins = s_->insert({Key::fromUint(key, kKeyBits),
                                              data});
        if (!ins.ok)
            return;
        // The new copy's rank among the key's copies, read off the
        // table once: copies are ordered by (distance from home, slot).
        const InsertResult &at = ins.placements[0];
        unsigned rank = 0;
        for (const Copy &c : chainCopies(key)) {
            if (c.dist < at.distance ||
                (c.dist == at.distance && c.slot < at.slot))
                ++rank;
        }
        auto &copies = ref_[key];
        if (copies.empty())
            live_.push_back(key);
        copies.insert(copies.begin() + rank, data);
    }

    uint64_t
    totalDistance() const
    {
        const LoadStats st = s_->loadStats();
        const auto &bins = st.distance.bins();
        uint64_t sum = 0;
        for (std::size_t d = 0; d < bins.size(); ++d)
            sum += d * bins[d];
        return sum;
    }

    /** Copies of @p key on its chain, in chain order. */
    std::vector<Copy>
    chainCopies(uint64_t key)
    {
        std::vector<Copy> out;
        for (const Copy &c : scanCopies(*s_)) {
            if (c.key == key)
                out.push_back(c);
        }
        std::sort(out.begin(), out.end(), [](const Copy &a, const Copy &b) {
            return a.dist != b.dist ? a.dist < b.dist : a.slot < b.slot;
        });
        return out;
    }

    void
    eraseAndCheck(uint64_t key)
    {
        auto it = ref_.find(key);
        const bool held = it != ref_.end() && !it->second.empty();
        // Total displacement must fall by more than the erased copy's
        // own distance whenever the repair moved a record.
        const uint64_t expected_after =
            totalDistance() - (held ? chainCopies(key).front().dist : 0);
        ASSERT_EQ(s_->erase(Key::fromUint(key, kKeyBits)), held ? 1u : 0u)
            << "key " << key;
        if (totalDistance() < expected_after)
            ++moved_;
        if (held) {
            it->second.erase(it->second.begin());
            if (it->second.empty()) {
                ref_.erase(it);
                live_.erase(std::find(live_.begin(), live_.end(), key));
            }
        }
        expectRepaired(*s_);
        if (::testing::Test::HasFatalFailure())
            return;
        for (const auto &[k, copies] : ref_) {
            const SearchResult r = s_->search(Key::fromUint(k, kKeyBits));
            ASSERT_TRUE(r.hit) << "live key " << k << " lost";
            ASSERT_EQ(r.data, copies.front()) << "key " << k;
            if (copies.size() > 1) {
                const std::vector<Copy> chain = chainCopies(k);
                ASSERT_EQ(chain.size(), copies.size()) << "key " << k;
                for (std::size_t i = 0; i < chain.size(); ++i)
                    ASSERT_EQ(chain[i].data, copies[i])
                        << "key " << k << " copy " << i << " out of order";
            }
        }
        if (!held) {
            EXPECT_FALSE(s_->search(Key::fromUint(key, kKeyBits)).hit);
        }
    }

    std::unique_ptr<CaRamSlice> s_;
    Rng rng_;
    std::map<uint64_t, std::vector<uint64_t>> ref_;
    std::vector<uint64_t> live_;
    uint64_t dataSeq_ = 0;
    uint64_t moved_ = 0;
};

uint64_t
anyKey(Rng &rng)
{
    return rng.next64() & 0xffffffffu;
}

std::unique_ptr<CaRamSlice>
foldSlice(const SliceConfig &cfg)
{
    return std::make_unique<CaRamSlice>(
        cfg, std::make_unique<hash::XorFoldIndex>(cfg.indexBits));
}

std::unique_ptr<CaRamSlice>
lowBitsSlice(const SliceConfig &cfg)
{
    return std::make_unique<CaRamSlice>(
        cfg, std::make_unique<hash::LowBitsIndex>(kKeyBits, cfg.indexBits));
}

TEST(EraseRepair, EightSlotRowsAtHighLoad)
{
    ChurnHarness h(foldSlice(linearConfig(6, 8, 63)), 0xe7a5e1);
    h.run(anyKey, 0.85, 3000, false);
}

TEST(EraseRepair, NinetySixSlotRows)
{
    ChurnHarness h(foldSlice(linearConfig(4, 96, 15)), 0xe7a5e2);
    h.run(anyKey, 0.85, 600, false);
}

TEST(EraseRepair, ChainWrapsPastTheLastRow)
{
    // 16 rows homed by the key's low 4 bits; 70% of the keys home in
    // the last two rows, so their chains wrap into rows 0, 1, 2, ...
    // where the remaining keys home.
    auto wrap_key = [](Rng &rng) {
        const uint64_t high = rng.next64() & 0xfffffff0u;
        return rng.chance(0.7) ? high | (14 + rng.below(2)) : high | rng.below(16);
    };
    ChurnHarness h(lowBitsSlice(linearConfig(4, 4, 15)), 0xe7a5e3);
    h.run(wrap_key, 0.8, 2000, false);
}

TEST(EraseRepair, DuplicateKeysKeepTheirChainOrder)
{
    // A small key pool over a few homes: keys collect several copies,
    // and repairs shift copies past and into rows holding their twins.
    auto pool_key = [](Rng &rng) {
        return (rng.below(40) << 8) | rng.below(8);
    };
    ChurnHarness h(lowBitsSlice(linearConfig(3, 4, 7)), 0xe7a5e4);
    h.run(pool_key, 0.8, 2000, true);
}

// ---------------------------------------------------------------------
// The erase multiplicity rule: one erase removes one logical record --
// for a binary key, exactly the copy search() answers with.

DatabaseConfig
ruleConfig(OverflowPolicy policy)
{
    DatabaseConfig cfg;
    cfg.sliceShape = linearConfig(4, 2, 15);
    cfg.overflow = policy;
    cfg.overflowCapacity = 16;
    cfg.overflowIndexBits = 3;
    cfg.overflowSlots = 2;
    cfg.indexFactory = [](const SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        return std::make_unique<hash::LowBitsIndex>(kKeyBits, eff.indexBits);
    };
    return cfg;
}

/** Insert k twice (data 1 then 2) where only the first fits its home
 *  bucket next to a filler record, then erase k three times: each
 *  erase takes the copy search() answered with, and the survivor
 *  answers next. */
void
expectOneRecordPerErase(OverflowPolicy policy)
{
    Database db(ruleConfig(policy));
    const Key k = Key::fromUint(0x503, kKeyBits); // home row 3
    ASSERT_TRUE(db.insert({k, 1}));
    ASSERT_TRUE(db.insert({Key::fromUint(0x713, kKeyBits), 9}));
    ASSERT_TRUE(db.insert({k, 2})); // home full: spills
    ASSERT_EQ(db.size(), 3u);
    EXPECT_EQ(db.search(k).data, 1u);

    EXPECT_EQ(db.erase(k), 1u);
    EXPECT_EQ(db.size(), 2u);
    const SearchResult survivor = db.search(k);
    ASSERT_TRUE(survivor.hit);
    EXPECT_EQ(survivor.data, 2u);
    if (policy == OverflowPolicy::Probing) {
        // The survivor had spilled to row 4; the repair moved it into
        // the hole in its home row, so the lookup reads one row.
        EXPECT_EQ(survivor.row, 3u);
        EXPECT_EQ(survivor.bucketsAccessed, 1u);
        EXPECT_EQ(db.slice().bucket(3).reach(), 0u);
    }

    EXPECT_EQ(db.erase(k), 1u);
    EXPECT_FALSE(db.search(k).hit);
    EXPECT_EQ(db.erase(k), 0u);
    EXPECT_EQ(db.size(), 1u);
    EXPECT_EQ(db.search(Key::fromUint(0x713, kKeyBits)).data, 9u);
}

TEST(EraseRule, ProbingRemovesOneCopyAndRepairMovesTheSurvivor)
{
    expectOneRecordPerErase(OverflowPolicy::Probing);
}

TEST(EraseRule, ParallelSliceRemovesOnlyTheAnsweringCopy)
{
    expectOneRecordPerErase(OverflowPolicy::ParallelSlice);
}

TEST(EraseRule, ParallelTcamRemovesOnlyTheAnsweringCopy)
{
    expectOneRecordPerErase(OverflowPolicy::ParallelTcam);
}

TEST(EraseRule, TernaryRecordLeavesOneCopyPerHome)
{
    // A ternary record with a don't-care in an index bit has two homes;
    // one erase takes one copy from each, so a record inserted twice
    // survives one erase whole (the m / c arithmetic of rebuild()).
    DatabaseConfig cfg = ruleConfig(OverflowPolicy::Probing);
    cfg.sliceShape.ternary = true;
    cfg.sliceShape.slotsPerBucket = 4;
    cfg.indexFactory = [](const SliceConfig &)
        -> std::unique_ptr<hash::IndexGenerator> {
        // Index bits are the key's top four bits.
        return std::make_unique<hash::BitSelectIndex>(
            kKeyBits, std::vector<unsigned>{0, 1, 2, 3});
    };
    Database db(cfg);
    Key k = Key::fromUint(0x500, kKeyBits);
    k.setBitAt(0, false, false); // the MSB is a don't-care: two homes
    const Key probe = Key::fromUint(0x80000500, kKeyBits);
    ASSERT_TRUE(db.insert({k, 1}));
    ASSERT_TRUE(db.insert({k, 1}));
    EXPECT_EQ(db.size(), 4u);
    EXPECT_EQ(db.erase(k), 2u);
    EXPECT_EQ(db.size(), 2u);
    EXPECT_TRUE(db.search(probe).hit);
    EXPECT_EQ(db.erase(k), 2u);
    EXPECT_FALSE(db.search(probe).hit);
    EXPECT_EQ(db.erase(k), 0u);
}

// ---------------------------------------------------------------------
// No aging: a scaled flow-churn table (64-bit flows, 8-slot rows,
// alpha ~ 0.715, XOR-fold index) under FIFO churn -- each pair inserts
// the next flow and erases the oldest -- for 20x the table's records.
// Without the repair, reach only grows and spilled survivors stay far
// from freed home rows: AMAL climbs and modeled throughput falls.  With
// it, the churned table must match a freshly loaded table of the same
// live flows.

constexpr unsigned kFlowIndexBits = 12;
constexpr uint64_t kFlows = 23'437; // 1.5M / 64 flows, alpha 0.715

uint64_t
flowKey(uint64_t seq, bool absent)
{
    uint64_t x = seq ^ (absent ? 0x5bd1e995ull << 32 : 0) ^ 0xf10e;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

Key
flowKeyOf(uint64_t seq, bool absent = false)
{
    return Key::fromUint(flowKey(seq, absent), 64);
}

std::unique_ptr<Database>
loadedFlowTable(uint64_t lo)
{
    DatabaseConfig cfg;
    cfg.sliceShape.indexBits = kFlowIndexBits;
    cfg.sliceShape.logicalKeyBits = 64;
    cfg.sliceShape.ternary = false;
    cfg.sliceShape.slotsPerBucket = 8;
    cfg.sliceShape.dataBits = 32;
    cfg.sliceShape.probe = ProbePolicy::Linear;
    cfg.indexFactory = [](const SliceConfig &eff)
        -> std::unique_ptr<hash::IndexGenerator> {
        return std::make_unique<hash::XorFoldIndex>(eff.indexBits);
    };
    auto db = std::make_unique<Database>(cfg);
    std::vector<Record> load;
    for (uint64_t s = lo; s < lo + kFlows; ++s)
        load.push_back({flowKeyOf(s), s & 0xffffffffu});
    EXPECT_EQ(db->insertBatch(load).failed, 0u);
    return db;
}

/** Modeled Msps of 80% lookups of live flows [lo, lo + kFlows) and 20%
 *  absent ones, through core::TimingEngine. */
double
flowMsps(Database &db, uint64_t lo)
{
    Rng rng(0xf1e57);
    std::vector<Key> keys;
    for (int i = 0; i < 20000; ++i) {
        keys.push_back(rng.chance(0.2)
                           ? flowKeyOf(rng.next64() & 0xfffffff, true)
                           : flowKeyOf(lo + rng.below(kFlows)));
    }
    TimingEngine te(db, TimingConfig{});
    return te.run(keys).achievedMsps;
}

TEST(EraseRepair, FlowChurnTableDoesNotAge)
{
    auto db = loadedFlowTable(0);
    const double amal_start = db->amal();
    const double msps_start = flowMsps(*db, 0);
    uint64_t lo = 0;
    uint64_t hi = kFlows;
    for (uint64_t i = 0; i < 20 * kFlows; ++i) {
        ASSERT_TRUE(db->insert({flowKeyOf(hi), hi & 0xffffffffu}));
        ++hi;
        ASSERT_EQ(db->erase(flowKeyOf(lo)), 1u);
        ++lo;
    }
    db->slice().checkIntegrity();
    auto fresh = loadedFlowTable(lo);
    const double amal_churned = db->amal();
    const double amal_fresh = fresh->amal();
    const double msps_churned = flowMsps(*db, lo);
    const double msps_fresh = flowMsps(*fresh, lo);
    std::printf("after %llu churn pairs: AMAL %.4f (fresh load of the "
                "same flows %.4f; at the start %.4f), modeled %.2f Msps "
                "(fresh %.2f; at the start %.2f)\n",
                static_cast<unsigned long long>(20 * kFlows), amal_churned,
                amal_fresh, amal_start, msps_churned, msps_fresh,
                msps_start);
    EXPECT_GE(amal_fresh / amal_churned, 0.99);
    EXPECT_GE(msps_churned / msps_fresh, 0.99);
}

} // namespace
} // namespace caram::core
