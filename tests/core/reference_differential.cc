/**
 * @file
 * Brute-force reference differential: seeded Search/Insert/Erase/
 * Rebuild streams run through the engine and, independently, through a
 * reference table that holds a plain record vector and answers with a
 * linear Key::matches scan -- no hashing, no buckets, no probing, no
 * CaRamSlice code at all.  The engine-vs-serial differentials compare
 * two runs of the same slice code, so a semantic bug in the slice
 * passes every one of them; it fails here.
 *
 * Seven tables ride one subsystem, one per port, so every overflow
 * policy has a leg: binary, first-match ternary and LPM tables with
 * the Probing overflow policy and linear probing; a wide ternary table
 * (8 index taps) whose lookups span up to 64 candidate homes; a
 * 32-row LPM table with second-hash probing, where many prefixes
 * spill; a binary table with a ParallelSlice overflow area; and a
 * binary table with a ParallelTcam victim TCAM.  The rules the
 * reference checks, per response:
 *
 *  - Search: `hit` equals "some live record matches".  LPM answers
 *    with a matching record of the longest care-popcount (unique for a
 *    fully specified address).  First match (binary and ternary) only
 *    requires the answer to be one of the matches.
 *  - Insert: the reference cannot predict placement, so it follows the
 *    table -- an accepted insert adds the record, a rejected one leaves
 *    the reference unchanged.
 *  - Erase: `hit` equals "the reference held the key".  On binary
 *    tables the count equals the copies the reference held; ternary
 *    keys are duplicated across home rows, so their physical count is
 *    not compared.
 *  - Rebuild: succeeds and reports the reference's record count --
 *    except on the ParallelTcam table, whose TCAM entries cannot be
 *    enumerated: there it answers ok == false and changes nothing.
 *
 * bucketsAccessed is never compared.  Each stream inserts every key at
 * most once: Database::erase removes one logical record, so a key
 * inserted twice would survive one erase (erase_repair.cc pins that
 * rule).  Swept over workers {0, 1, 2, 4}, plus an erase-heavy leg
 * over the binary tables loaded near capacity, where nearly every
 * erase repairs its hole by shifting records back, and a RAM-mode leg
 * whose stream runs on a copy of the loaded tables made with raw word
 * stores (ramStore) and adoptRamContents().
 */

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
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
using core::ProbePolicy;
using core::Record;

/** One table shape and its key distribution. */
struct Variant
{
    const char *name;
    unsigned keyBits;
    unsigned indexBits;
    bool ternary;
    bool lpm;
    OverflowPolicy overflow;
    std::vector<unsigned> taps;
    ProbePolicy probe = ProbePolicy::Linear;
    /** Most tap bits a multi-home ternary search leaves don't-care. */
    unsigned wildTaps = 3;
};

Variant
binaryVariant()
{
    return Variant{"binary", 32, 6, false, false, OverflowPolicy::Probing,
                   {0, 5, 11, 17, 22, 28}};
}

Variant
ternaryVariant()
{
    return Variant{"ternary", 40,    7,
                   true,      false, OverflowPolicy::Probing,
                   {0, 5, 11, 17, 22, 28, 33}};
}

Variant
lpmVariant()
{
    // Taps inside the top byte: every stored prefix (length >= 8)
    // cares for them, so each prefix has one home row.
    return Variant{"lpm", 32,   6, true,
                   true,  OverflowPolicy::Probing, {0, 1, 2, 3, 5, 7}};
}

Variant
wideTernaryVariant()
{
    // Eight index taps: a search clearing up to six of them walks up to
    // 2^6 = 64 candidate home rows.
    Variant v{"ternary-wide", 48,   8,
              true,           false, OverflowPolicy::Probing,
              {0, 5, 11, 17, 22, 28, 33, 39}};
    v.wildTaps = 6;
    return v;
}

Variant
secondHashLpmVariant()
{
    // The pool's 24 prefix values share at most 24 of the 32 home rows,
    // so many prefixes spill, along second-hash strides.
    Variant v{"lpm-2h", 32,   5, true,
              true,     OverflowPolicy::Probing, {0, 1, 2, 3, 4}};
    v.probe = ProbePolicy::SecondHash;
    return v;
}

Variant
overflowTcamVariant()
{
    // A 16-row main table with no probing: spills go to the victim
    // TCAM.
    return Variant{"binary-tcam", 32, 4, false, false,
                   OverflowPolicy::ParallelTcam, {0, 5, 11, 17, 22, 28}};
}

Variant
overflowSliceVariant()
{
    // A 16-row main table with no probing: spills go to the parallel
    // overflow slice.
    return Variant{"binary-ovslice", 32, 4, false, false,
                   OverflowPolicy::ParallelSlice, {0, 5, 11, 17, 22, 28}};
}

DatabaseConfig
dbConfig(const Variant &v)
{
    DatabaseConfig cfg;
    cfg.name = v.name;
    cfg.sliceShape.indexBits = v.indexBits;
    cfg.sliceShape.logicalKeyBits = v.keyBits;
    cfg.sliceShape.ternary = v.ternary;
    cfg.sliceShape.lpm = v.lpm;
    cfg.sliceShape.slotsPerBucket = 4;
    cfg.sliceShape.dataBits = 16;
    cfg.sliceShape.maxProbeDistance = 8;
    cfg.sliceShape.probe = v.probe;
    cfg.overflow = v.overflow;
    if (v.overflow == OverflowPolicy::ParallelSlice) {
        cfg.overflowIndexBits = 5;
        cfg.overflowSlots = 4;
    }
    if (v.overflow == OverflowPolicy::ParallelTcam)
        cfg.overflowCapacity = 128;
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

/** The brute-force table: a record vector and a linear scan. */
class Reference
{
  public:
    explicit Reference(bool lpm) : lpm_(lpm) {}

    void insert(const Record &r) { records_.push_back(r); }

    /** Remove every record stored under exactly @p key; returns how
     *  many there were. */
    unsigned
    erase(const Key &key)
    {
        const auto end = std::remove_if(
            records_.begin(), records_.end(),
            [&](const Record &r) { return r.key == key; });
        const auto held = static_cast<unsigned>(records_.end() - end);
        records_.erase(end, records_.end());
        return held;
    }

    std::size_t size() const { return records_.size(); }

    /** Check one search answer against the scan. */
    void
    expectAnswer(const Key &search, bool hit, const Key &key,
                 uint64_t data) const
    {
        std::vector<const Record *> matches;
        for (const Record &r : records_) {
            if (r.key.matches(search))
                matches.push_back(&r);
        }
        ASSERT_EQ(hit, !matches.empty()) << "search " << search.toString();
        if (!hit)
            return;
        if (lpm_) {
            // Keep only the longest matches.  A fully specified address
            // has exactly one; a search prefix can tie several.
            unsigned longest = 0;
            for (const Record *r : matches)
                longest = std::max(longest, r->key.carePopcount());
            std::erase_if(matches, [&](const Record *r) {
                return r->key.carePopcount() != longest;
            });
        }
        EXPECT_TRUE(std::any_of(matches.begin(), matches.end(),
                                [&](const Record *r) {
                                    return r->key == key &&
                                           r->data == data;
                                }))
            << "search " << search.toString() << " answered "
            << key.toString() << " / " << data << ", which is no "
            << (lpm_ ? "longest " : "") << "live match";
    }

  private:
    bool lpm_;
    std::vector<Record> records_;
};

/** Draws the keys of one port: fresh insert keys (never repeated),
 *  and search keys that hit, miss, or straddle several homes. */
class KeySource
{
  public:
    KeySource(const Variant &v, uint64_t seed) : v_(v), rng_(seed)
    {
        for (int i = 0; i < 24; ++i)
            pool_.push_back(static_cast<uint32_t>(rng_.next64()));
    }

    /** A key never drawn by fresh() before. */
    Key
    fresh()
    {
        for (;;) {
            Key k = draw(0.97);
            if (drawn_.insert(k).second) {
                inserted_.push_back(k);
                return k;
            }
        }
    }

    /** A key the stream inserted earlier (live or erased since). */
    Key
    replay()
    {
        return inserted_[rng_.below(inserted_.size())];
    }

    bool haveInserted() const { return !inserted_.empty(); }

    Key
    search()
    {
        if (v_.lpm) {
            // An address inside some pool prefixes: its low bits are
            // random, so it matches every pool prefix no longer than
            // the bits it kept.
            const unsigned low = static_cast<unsigned>(rng_.below(25));
            const uint64_t noise =
                low == 0 ? 0 : rng_.next64() & ((uint64_t{1} << low) - 1);
            return Key::prefix(pool_[rng_.below(pool_.size())] ^ noise,
                               v_.keyBits, v_.keyBits);
        }
        Key k = haveInserted() && rng_.chance(0.5) ? replay() : draw(0.95);
        if (v_.ternary && rng_.chance(0.35)) {
            // Don't-care bits in distinct tap positions: a lookup over
            // up to 2^clear home rows.
            const auto clear =
                static_cast<unsigned>(rng_.inRange(1, v_.wildTaps));
            std::vector<unsigned> taps = v_.taps;
            for (unsigned c = 0; c < clear; ++c) {
                std::swap(taps[c],
                          taps[c + rng_.below(taps.size() - c)]);
                k.setBitAt(taps[c], false, false);
            }
        }
        return k;
    }

    Rng &rng() { return rng_; }

  private:
    Key
    draw(double care_p)
    {
        if (v_.lpm) {
            const auto len =
                static_cast<unsigned>(rng_.inRange(8, v_.keyBits));
            return Key::prefix(pool_[rng_.below(pool_.size())], len,
                               v_.keyBits);
        }
        Key k(v_.keyBits);
        for (unsigned p = 0; p < v_.keyBits; ++p)
            k.setBitAt(p, rng_.chance(0.5),
                       !v_.ternary || rng_.chance(care_p));
        return k;
    }

    Variant v_;
    Rng rng_;
    std::vector<uint32_t> pool_;
    std::unordered_set<Key, Key::Hasher> drawn_;
    std::vector<Key> inserted_;
};

int
priorityOf(const Variant &v, const Key &k)
{
    return v.lpm ? static_cast<int>(k.carePopcount()) : 0;
}

/** Base population and request mix of one leg's stream. */
struct Mix
{
    int baseRecords = 40; ///< insert attempts per port before the stream
    double insert = 0.10;
    double erase = 0.06;
    double rebuild = 0.02; ///< the rest are searches
    /** Serve the stream from a RAM-mode copy of the loaded tables. */
    bool ramCopy = false;
};

/**
 * A fresh subsystem holding the tables of @p src, copied through RAM
 * mode: every word of each slice (main and overflow) is stored raw
 * with ramStore(), then adoptRamContents() rebuilds the aux fields and
 * placement statistics from the copied bits alone.
 */
std::unique_ptr<CaRamSubsystem>
ramCopyOf(CaRamSubsystem &src, const std::vector<Variant> &variants)
{
    auto dst = std::make_unique<CaRamSubsystem>(1024, 1024, true);
    auto copy = [](core::CaRamSlice &from, core::CaRamSlice &to) {
        for (uint64_t w = 0; w < from.ramWords(); ++w)
            to.ramStore(w, from.ramLoad(w));
        to.adoptRamContents();
        EXPECT_EQ(to.size(), from.size());
        to.checkIntegrity();
    };
    for (unsigned p = 0; p < variants.size(); ++p) {
        auto &db = dst->addDatabase(dbConfig(variants[p]));
        copy(src.database(p).slice(), db.slice());
        if (core::CaRamSlice *ov = src.database(p).overflowSlice())
            copy(*ov, *db.overflowSlice());
    }
    return dst;
}

/** One leg: the tables of @p variants (one per port), a base
 *  population, then a seeded stream through an engine built from
 *  @p cfg, every response checked against the reference. */
void
runLeg(const std::vector<Variant> &variants, const EngineConfig &cfg,
       uint64_t seed, const Mix &mix = {})
{
    SCOPED_TRACE(::testing::Message()
                 << "workers " << cfg.workers << " seed " << seed);
    const auto nports = static_cast<unsigned>(variants.size());
    auto sys = std::make_unique<CaRamSubsystem>(1024, 1024, true);
    std::vector<Reference> refs;
    std::vector<KeySource> sources;
    for (unsigned p = 0; p < nports; ++p) {
        const Variant &v = variants[p];
        auto &db = sys->addDatabase(dbConfig(v));
        refs.emplace_back(v.lpm);
        sources.emplace_back(v, seed * 31 + p);
        for (int i = 0; i < mix.baseRecords; ++i) {
            const Record r{sources[p].fresh(),
                           sources[p].rng().below(1u << 16)};
            if (db.insert(r, priorityOf(v, r.key)))
                refs[p].insert(r);
        }
    }
    if (mix.ramCopy)
        sys = ramCopyOf(*sys, variants);

    Rng rng(seed);
    std::vector<PortRequest> stream;
    for (uint64_t tag = 1; tag <= 3000; ++tag) {
        PortRequest req;
        req.port = static_cast<unsigned>(rng.below(nports));
        req.tag = tag;
        KeySource &src = sources[req.port];
        const double roll = rng.uniform();
        if (roll < mix.insert) {
            req.op = PortOp::Insert;
            req.key = src.fresh();
            req.data = rng.below(1u << 16);
            req.priority = priorityOf(variants[req.port], req.key);
        } else if (roll < mix.insert + mix.erase) {
            req.op = PortOp::Erase;
            req.key = src.haveInserted() && rng.chance(0.8)
                ? src.replay()
                : src.search();
        } else if (roll < mix.insert + mix.erase + mix.rebuild) {
            req.op = PortOp::Rebuild;
        } else {
            req.op = PortOp::Search;
            req.key = src.search();
        }
        stream.push_back(std::move(req));
    }

    ParallelSearchEngine eng(*sys, cfg);
    eng.start();
    ASSERT_EQ(eng.submitBatch(stream), stream.size());
    eng.stop();

    std::vector<std::vector<PortResponse>> got(nports);
    for (unsigned p = 0; p < nports; ++p) {
        while (auto r = eng.fetchResult(p))
            got[p].push_back(std::move(*r));
    }
    std::vector<std::size_t> next(nports, 0);
    for (const PortRequest &req : stream) {
        const unsigned p = req.port;
        const Variant &v = variants[p];
        ASSERT_LT(next[p], got[p].size()) << v.name << " ran short";
        const PortResponse &resp = got[p][next[p]++];
        SCOPED_TRACE(::testing::Message()
                     << v.name << " tag " << req.tag);
        ASSERT_EQ(resp.tag, req.tag);
        // A victim TCAM cannot be enumerated, so its table refuses a
        // rebuild; every other request succeeds.
        const bool refused = req.op == PortOp::Rebuild &&
                             v.overflow == OverflowPolicy::ParallelTcam;
        ASSERT_EQ(resp.ok, !refused);
        switch (req.op) {
          case PortOp::Search:
            refs[p].expectAnswer(req.key, resp.hit, resp.key, resp.data);
            break;
          case PortOp::Insert:
            if (resp.hit)
                refs[p].insert(Record{req.key, req.data});
            break;
          case PortOp::Erase: {
            const unsigned held = refs[p].erase(req.key);
            EXPECT_EQ(resp.hit, held > 0) << req.key.toString();
            if (!v.ternary) {
                EXPECT_EQ(resp.data, held) << req.key.toString();
            }
            break;
          }
          case PortOp::Rebuild:
            if (refused)
                break; // the reference stays as it is
            EXPECT_TRUE(resp.hit);
            EXPECT_EQ(resp.data, refs[p].size());
            break;
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }

    // The final tables answer like the reference too, for every key the
    // stream inserted and a fresh batch of searches.
    for (unsigned p = 0; p < nports; ++p) {
        SCOPED_TRACE(variants[p].name);
        auto &db = sys->database(p);
        for (int i = 0; i < 300; ++i) {
            const Key k = i % 2 == 0 && sources[p].haveInserted()
                ? sources[p].replay()
                : sources[p].search();
            const auto r = db.search(k);
            refs[p].expectAnswer(k, r.hit, r.key, r.data);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

/** One worker-count leg over all seven tables. */
void
runAllTables(unsigned workers)
{
    EngineConfig cfg;
    cfg.workers = workers;
    runLeg({binaryVariant(), ternaryVariant(), lpmVariant(),
            wideTernaryVariant(), secondHashLpmVariant(),
            overflowSliceVariant(), overflowTcamVariant()},
           cfg, 0x7ef01 + workers * 64);
}

TEST(ReferenceDifferential, Workers0) { runAllTables(0); }
TEST(ReferenceDifferential, Workers1) { runAllTables(1); }
TEST(ReferenceDifferential, Workers2) { runAllTables(2); }
TEST(ReferenceDifferential, Workers4) { runAllTables(4); }

TEST(ReferenceDifferential, BinaryTablesEraseHeavyHighLoad)
{
    // The binary tables loaded near capacity (the Probing table holds
    // 256 slots, the ParallelSlice table 64 main + 128 overflow), then
    // churned: a third of the stream erases, a third inserts.  Nearly
    // every erase opens a hole inside a spilled chain, so the repair
    // shifts records back on almost every one; no answer may change.
    EngineConfig cfg;
    cfg.workers = 2;
    Mix mix;
    mix.baseRecords = 230;
    mix.insert = 0.33;
    mix.erase = 0.33;
    mix.rebuild = 0.002;
    runLeg({binaryVariant(), overflowSliceVariant()}, cfg, 0x7ef99, mix);
}

TEST(ReferenceDifferential, RamModeCopyServesTheStream)
{
    // Tables loaded well past their home rows (chains spill, the
    // ParallelSlice table fills its overflow slice), copied word by
    // word into fresh slices and adopted; the Search/Insert/Erase
    // stream then runs on the copies.  Adoption is exact for records
    // with one home, so the ternary tables, whose spilled duplicated
    // copies cannot be re-attributed from the raw bits
    // (CaRamSlice::adoptRamContents), are left out, and so is the
    // second-hash table: adoption measures probe distance linearly.
    EngineConfig cfg;
    cfg.workers = 2;
    Mix mix;
    mix.baseRecords = 150;
    mix.rebuild = 0.0;
    mix.ramCopy = true;
    runLeg({binaryVariant(), lpmVariant(), overflowSliceVariant()}, cfg,
           0x7efa0, mix);
}

} // namespace
} // namespace caram::engine
