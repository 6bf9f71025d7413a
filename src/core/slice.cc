#include "core/slice.h"

#include <algorithm>
#include <bit>
#include <cstdlib>

#include "common/bitops.h"
#include "common/logging.h"
#include "common/strings.h"
#include "mem/prefetch.h"

namespace caram::core {

namespace {

/** splitmix64 finalizer -- hashes row indices for the ingest row cache
 *  (consecutive rows must not cluster in the open-addressed table). */
inline uint64_t
mixRow(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Seqlock stripe count for @p rows: next power of two, capped. */
uint64_t
seqStripes(uint64_t rows)
{
    constexpr uint64_t kMaxStripes = uint64_t{1} << 16;
    return std::min(std::bit_ceil(rows), kMaxStripes);
}

/** CARAM_SEQLOCK_TEAR: inject a snapshot retry every Nth row copy. */
unsigned
envTornReadEvery()
{
    const char *env = std::getenv("CARAM_SEQLOCK_TEAR");
    if (!env || !*env)
        return 0;
    char *end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (!end || *end != '\0' || v > ~0u) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn(strprintf("ignoring invalid CARAM_SEQLOCK_TEAR=%s", env));
        return 0;
    }
    return static_cast<unsigned>(v);
}

} // namespace

CaRamSlice::RowWriteGuard::RowWriteGuard(CaRamSlice &s, uint64_t row)
    : seq_(s.rowSeqs_[row & s.seqMask_].v)
{
    // Every store that can change a lookup's outcome runs inside a row
    // writer section, so the guard is also the single collection point
    // for the result cache's dirty-region accounting.
    s.noteRowDirty(row);
    // Relaxed increment then release fence: the fence keeps the data
    // stores below the odd sequence value, so a reader that starts its
    // snapshot after loading an even sequence and still observes a new
    // data word is guaranteed to see the odd (or advanced) sequence on
    // its validation re-read.
    seq_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
}

CaRamSlice::RowWriteGuard::~RowWriteGuard()
{
    seq_.fetch_add(1, std::memory_order_release);
}

CaRamSlice::AllRowsWriteGuard::AllRowsWriteGuard(CaRamSlice &s) : slice_(s)
{
    // Whole-array rewrite: every cache region is dirty.
    slice_.dirtyRegions_.store(~uint64_t{0}, std::memory_order_relaxed);
    for (RowSeq &rs : slice_.rowSeqs_)
        rs.v.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
}

CaRamSlice::AllRowsWriteGuard::~AllRowsWriteGuard()
{
    for (RowSeq &rs : slice_.rowSeqs_)
        rs.v.fetch_add(1, std::memory_order_release);
}

CaRamSlice::ScratchUse::ScratchUse(const CaRamSlice &s) : slice_(s)
{
    if (slice_.scratchGuard_.fetch_add(1, std::memory_order_acq_rel) != 0)
        panic("concurrent use of per-slice scratch: shard workers must "
              "use packSearchKey/candidateHomes/searchRows with "
              "shard-local scratch, never search/searchBatch/erase");
}

CaRamSlice::ScratchUse::~ScratchUse()
{
    slice_.scratchGuard_.fetch_sub(1, std::memory_order_acq_rel);
}

CaRamSlice::CaRamSlice(const SliceConfig &config,
                       std::unique_ptr<hash::IndexGenerator> index_gen)
    : cfg(config),
      idxGen(std::move(index_gen)),
      array_(config.rows(), config.storageRowBits()),
      matcher(cfg),
      rowSeqs_(seqStripes(config.rows())),
      seqMask_(seqStripes(config.rows()) - 1),
      tearEvery_(envTornReadEvery())
{
    cfg.validate();
    if (!idxGen)
        fatal("slice requires an index generator");
    if (idxGen->rowCount() != cfg.rows())
        fatal(strprintf("index generator addresses %llu rows but the "
                        "slice has %llu",
                        (unsigned long long)idxGen->rowCount(),
                        (unsigned long long)cfg.rows()));
    homeDemandPerBucket.assign(cfg.rows(), 0);
    filter_.reset(cfg.rows());
    // Region shift: the highest row index must map below kCacheRegions.
    // Computed from bit_width so non-power-of-two row counts
    // (SliceConfig::rowOverride) land in range too.
    const unsigned top_bits =
        static_cast<unsigned>(std::bit_width(cfg.rows() - 1));
    cacheRegionShift_ = top_bits > 6 ? top_bits - 6 : 0;
}

uint64_t
CaRamSlice::homeRow(const Key &key) const
{
    if (key.bits() != cfg.logicalKeyBits)
        fatal("key width does not match the slice configuration");
    return idxGen->index(key.valueWords(), key.bits());
}

std::vector<uint64_t>
CaRamSlice::homeRows(const Key &key) const
{
    if (key.bits() != cfg.logicalKeyBits)
        fatal("key width does not match the slice configuration");
    std::vector<uint64_t> homes;
    idxGen->candidateIndices(key.valueWords(), key.careWords(), key.bits(),
                             homes);
    return homes;
}

const std::vector<uint64_t> &
CaRamSlice::homeRowsInto(const Key &key)
{
    if (key.bits() != cfg.logicalKeyBits)
        fatal("key width does not match the slice configuration");
    homesScratch.clear();
    // Fully specified keys (the common lookup traffic) have exactly one
    // candidate: skip the per-tap care scan of candidateIndices.
    if (key.fullySpecified())
        homesScratch.push_back(idxGen->index(key.valueWords(), key.bits()));
    else
        idxGen->candidateIndices(key.valueWords(), key.careWords(),
                                 key.bits(), homesScratch);
    return homesScratch;
}

uint64_t
CaRamSlice::searchRegionMask(const Key &search_key,
                             std::vector<uint64_t> &scratch)
{
    if (search_key.bits() != cfg.logicalKeyBits)
        fatal("key width does not match the slice configuration");
    // The FULL candidate home set, before any pre-filter pruning: a
    // pruned home that later gains a matching record must still
    // invalidate this lookup's cached entry, and its home row is where
    // that insert writes (slot or reach/aux word).
    scratch.clear();
    if (search_key.fullySpecified()) {
        scratch.push_back(
            idxGen->index(search_key.valueWords(), search_key.bits()));
    } else {
        idxGen->candidateIndices(search_key.valueWords(),
                                 search_key.careWords(),
                                 search_key.bits(), scratch);
    }
    // Cost bound: a lookup wide enough to enumerate more rows than
    // this is stamped with full coverage instead (strictly more
    // conservative, never wrong).
    constexpr std::size_t kMaxCoveredRows = 128;
    if (scratch.size() > kMaxCoveredRows)
        return ~uint64_t{0};
    uint64_t mask = 0;
    std::size_t covered = scratch.size();
    for (const uint64_t home : scratch) {
        // The home row itself is always covered: a reach extension
        // beyond today's chain writes the home's aux word, so a future
        // record this lookup could match always dirties a covered
        // region even when it lands outside the current chain.
        mask |= cacheRegionBit(home);
        const unsigned reach = bucket(home).reach();
        covered += reach;
        if (covered > kMaxCoveredRows)
            return ~uint64_t{0};
        for (unsigned d = 1; d <= reach; ++d)
            mask |= cacheRegionBit(probeRow(home, d, search_key));
    }
    return mask;
}

uint64_t
CaRamSlice::probeRow(uint64_t home, unsigned d, const Key &key) const
{
    if (d == 0)
        return home;
    const uint64_t rows = cfg.rows();
    switch (cfg.probe) {
      case ProbePolicy::None:
        panic("probing disabled but a nonzero distance was requested");
      case ProbePolicy::Linear:
        return (home + d) % rows;
      case ProbePolicy::SecondHash: {
        // A fixed odd stride derived from a second (xor-fold) hash of
        // the key; odd strides cycle through the power-of-two row space
        // (validate() rejects SecondHash on non-power-of-two rows).
        uint64_t h = 0;
        for (uint64_t w : key.valueWords())
            h ^= w;
        h ^= h >> cfg.indexBits;
        const uint64_t step = (h & (rows - 1)) | 1;
        return (home + d * step) & (rows - 1);
      }
    }
    panic("unreachable probe policy");
}

InsertResult
CaRamSlice::insertAt(uint64_t home_row, const Record &record)
{
    InsertResult result;
    result.homeRow = home_row;
    const unsigned max_d =
        cfg.probe == ProbePolicy::None ? 0 : cfg.maxProbeDistance;
    for (unsigned d = 0; d <= max_d; ++d) {
        const uint64_t row = probeRow(home_row, d, record.key);
        BucketView b = bucket(row);
        // Fast path: with insert-only workloads slots fill in order, so
        // the aux used count points at the first free slot.
        int slot = -1;
        const unsigned used = b.usedCount();
        if (used < cfg.slotsPerBucket && !b.slotValid(used))
            slot = static_cast<int>(used);
        else
            slot = b.firstFreeSlot();
        if (slot < 0)
            continue;
        {
            const RowWriteGuard wg(*this, row);
            b.writeSlot(static_cast<unsigned>(slot), record.key,
                        record.data);
            b.setUsedCount(b.usedCount() + 1);
            filter_.add(row, record.key);
        }
        // Separate guard scope: home_row may share the placed row's
        // seqlock stripe, and guards must not nest (see RowWriteGuard).
        {
            BucketView home = bucket(home_row);
            const RowWriteGuard wg(*this, home_row);
            const unsigned reach = std::max(home.reach(), d);
            home.setReach(reach);
            filter_.setReach(home_row, reach);
        }
        ++homeDemandPerBucket[home_row];
        distanceHist.add(d);
        ++recordCount;
        if (d > 0)
            ++spilledCount;
        result.ok = true;
        result.placedRow = row;
        result.slot = static_cast<unsigned>(slot);
        result.distance = d;
        return result;
    }
    return result; // ok == false: no space within the probe limit
}

void
CaRamSlice::removePlacement(const InsertResult &placement)
{
    if (!placement.ok)
        panic("cannot remove a failed placement");
    BucketView b = bucket(placement.placedRow);
    if (!b.slotValid(placement.slot))
        panic("placement slot is no longer valid");
    {
        const RowWriteGuard wg(*this, placement.placedRow);
        // The placement carries no key: read it back before the clear
        // so the filter's counters can be lowered for the right key.
        filter_.remove(placement.placedRow, b.slotKey(placement.slot));
        b.clearSlot(placement.slot);
        b.setUsedCount(b.usedCount() - 1);
    }
    --homeDemandPerBucket[placement.homeRow];
    distanceHist.remove(placement.distance);
    --recordCount;
    if (placement.distance > 0)
        --spilledCount;
}

InsertSummary
CaRamSlice::insert(const Record &record)
{
    InsertSummary summary;
    const auto homes = homeRows(record.key);
    summary.copies = static_cast<unsigned>(homes.size());
    for (uint64_t home : homes) {
        InsertResult r = insertAt(home, record);
        if (!r.ok) {
            // All-or-nothing: roll back exactly the copies this call
            // placed (an identical pre-existing record is untouched).
            for (const InsertResult &placed : summary.placements)
                removePlacement(placed);
            summary.ok = false;
            summary.placements.clear();
            return summary;
        }
        summary.maxDistance = std::max(summary.maxDistance, r.distance);
        summary.placements.push_back(r);
    }
    summary.ok = true;
    return summary;
}

InsertBatchSummary
CaRamSlice::insertBatchChunk(const Record *records, unsigned n,
                             InsertOutcome *outcomes)
{
    // Two phases.  *Simulate*: replay the serial insert() decisions in
    // submission order against a row cache -- each distinct row is
    // fetched once, and every slot choice, aux update, probe and
    // rollback is resolved against the cached state, so the decisions
    // are exactly the serial ones.  *Apply*: write the simulated
    // placements row-at-a-time (sorted by row, submission order within
    // a row) and patch each changed row's aux field once.  The final
    // array is bit-identical to the serial loop -- including the
    // key/data residue and unrestored reach a rolled-back insert()
    // leaves behind -- while a row shared by many records is fetched
    // and written back once instead of once per record.
    const ScratchUse guard(*this);
    InsertBatchSummary sum;
    auto &ig = ingest_;
    const unsigned slots = cfg.slotsPerBucket;
    const unsigned mask_words = (slots + 63) / 64;
    const unsigned max_d =
        cfg.probe == ProbePolicy::None ? 0 : cfg.maxProbeDistance;

    ig.row.clear();
    ig.used.clear();
    ig.reach.clear();
    ig.usedAtFetch.clear();
    ig.reachAtFetch.clear();
    ig.dirty.clear();
    ig.valid.clear();
    ig.placements.clear();
    if (ig.table.size() < 1024)
        ig.table.assign(1024, -1);
    else
        std::fill(ig.table.begin(), ig.table.end(), -1);

    // Software-prefetch pipeline: the chunk's home-row addresses are
    // all computable before any row is needed (one hash per record, no
    // memory touch), so the simulate loop below runs a bounded
    // lookahead of prefetches ahead of itself -- the DRAM misses
    // overlap instead of serializing behind one another (the
    // record-at-a-time path's dependent-miss chain).  The lookahead is
    // kept near the core's outstanding-miss capacity; prefetching the
    // whole chunk up front would just evict its own tail.
    constexpr unsigned kPrefetchAhead = 16;
    constexpr uint64_t kNoPrefetch = ~uint64_t{0};
    const uint64_t row_bytes = array_.wordsPerRow() * 8;
    const uint64_t pf_bytes = std::min<uint64_t>(row_bytes, 256);
    const uint64_t aux_byte =
        static_cast<uint64_t>(slots) * cfg.slotBits() / 8;
    ig.pfRow.resize(n);
    for (unsigned i = 0; i < n; ++i) {
        const Key &key = records[i].key;
        ig.pfRow[i] =
            key.bits() == cfg.logicalKeyBits && key.fullySpecified()
                ? idxGen->index(key.valueWords(), key.bits())
                : kNoPrefetch;
    }
    auto prefetchHome = [&](unsigned i) {
        if (i >= n || ig.pfRow[i] == kNoPrefetch)
            return;
        const uint64_t *base = array_.rowData(ig.pfRow[i]);
        mem::prefetchSpan(base, pf_bytes);
        if (aux_byte >= pf_bytes)
            mem::prefetchRead(reinterpret_cast<const char *>(base) +
                              aux_byte);
    };
    for (unsigned i = 0; i < kPrefetchAhead && i < n; ++i)
        prefetchHome(i);

    auto rehash = [&ig] {
        ig.table.assign(ig.table.size() * 2, -1);
        const uint64_t mask = ig.table.size() - 1;
        for (std::size_t e = 0; e < ig.row.size(); ++e) {
            uint64_t pos = mixRow(ig.row[e]) & mask;
            while (ig.table[pos] >= 0)
                pos = (pos + 1) & mask;
            ig.table[pos] = static_cast<int32_t>(e);
        }
    };
    // Cache entry of @p row, fetching the row (aux + valid bits) on
    // first touch.
    auto touch = [&](uint64_t row) -> uint32_t {
        uint64_t mask = ig.table.size() - 1;
        uint64_t pos = mixRow(row) & mask;
        while (ig.table[pos] >= 0) {
            const auto e = static_cast<uint32_t>(ig.table[pos]);
            if (ig.row[e] == row)
                return e;
            pos = (pos + 1) & mask;
        }
        const auto e = static_cast<uint32_t>(ig.row.size());
        BucketView b = bucket(row);
        ig.row.push_back(row);
        ig.used.push_back(static_cast<uint16_t>(b.usedCount()));
        ig.reach.push_back(static_cast<uint16_t>(b.reach()));
        ig.usedAtFetch.push_back(ig.used.back());
        ig.reachAtFetch.push_back(ig.reach.back());
        ig.dirty.push_back(0);
        for (unsigned w = 0; w < mask_words; ++w) {
            uint64_t bits = 0;
            const unsigned lim = std::min(slots - w * 64, 64u);
            for (unsigned s = 0; s < lim; ++s)
                bits |= uint64_t{b.slotValid(w * 64 + s)} << s;
            ig.valid.push_back(bits);
        }
        ig.table[pos] = static_cast<int32_t>(e);
        if ((ig.row.size() + 1) * 2 > ig.table.size())
            rehash();
        return e;
    };
    auto validBit = [&ig, mask_words](uint32_t e, unsigned s) {
        return ((ig.valid[e * mask_words + s / 64] >> (s % 64)) & 1) != 0;
    };
    auto firstFree = [&ig, mask_words, slots](uint32_t e) -> int {
        for (unsigned w = 0; w < mask_words; ++w) {
            const unsigned lim = std::min(slots - w * 64, 64u);
            uint64_t free_bits = ~ig.valid[e * mask_words + w];
            if (lim < 64)
                free_bits &= maskBits(lim);
            if (free_bits)
                return static_cast<int>(w * 64 +
                                        std::countr_zero(free_bits));
        }
        return -1;
    };

    // Simulate, in submission order.
    for (unsigned i = 0; i < n; ++i) {
        prefetchHome(i + kPrefetchAhead);
        const Record &rec = records[i];
        const auto &homes = homeRowsInto(rec.key);
        const auto copies = static_cast<unsigned>(homes.size());
        if (copies > 1)
            ++sum.multiHomeRecords;
        const std::size_t first_placement = ig.placements.size();
        bool ok = true;
        unsigned max_dist = 0;
        for (uint64_t home : homes) {
            bool placed = false;
            uint32_t home_entry = 0;
            for (unsigned d = 0; d <= max_d; ++d) {
                const uint64_t prow = probeRow(home, d, rec.key);
                const uint32_t e = touch(prow);
                if (d == 0)
                    home_entry = e;
                // Serial reference cost: insertAt() reads every probed
                // row, then writes the placed slot's row and -- when
                // the record spilled -- the home row's aux separately.
                ++sum.serialRowFetches;
                const unsigned used = ig.used[e];
                int slot = -1;
                if (used < slots && !validBit(e, used))
                    slot = static_cast<int>(used);
                else
                    slot = firstFree(e);
                if (slot < 0)
                    continue;
                ig.valid[e * mask_words + slot / 64] |=
                    uint64_t{1} << (slot % 64);
                ++ig.used[e];
                ig.dirty[e] = 1;
                ig.reach[home_entry] = std::max(
                    ig.reach[home_entry], static_cast<uint16_t>(d));
                ig.placements.push_back({i, static_cast<uint32_t>(slot),
                                         e, home_entry, d, 0});
                sum.serialRowWritebacks += d == 0 ? 1 : 2;
                max_dist = std::max(max_dist, d);
                placed = true;
                break;
            }
            if (!placed) {
                // All-or-nothing rollback, exactly as insert(): the
                // copies this record placed become *dead* -- their
                // key/data bits are still written (then invalidated)
                // and the home reach they raised stays raised.
                ok = false;
                for (std::size_t p = first_placement;
                     p < ig.placements.size(); ++p) {
                    auto &pl = ig.placements[p];
                    pl.dead = 1;
                    ig.valid[pl.entry * mask_words + pl.slot / 64] &=
                        ~(uint64_t{1} << (pl.slot % 64));
                    --ig.used[pl.entry];
                    // removePlacement(): one row read, one writeback.
                    ++sum.serialRowFetches;
                    ++sum.serialRowWritebacks;
                }
                break;
            }
        }
        if (ok)
            ++sum.accepted;
        else
            ++sum.failed;
        if (outcomes) {
            outcomes[i].ok = ok;
            outcomes[i].copies = copies;
            outcomes[i].maxDistance = max_dist;
        }
    }

    // Apply row-at-a-time: placements sorted by (row, submission seq),
    // so several writes to one slot (a dead placement reused by a later
    // record) land in serial order.
    ig.applyOrder.clear();
    for (std::size_t p = 0; p < ig.placements.size(); ++p)
        ig.applyOrder.emplace_back(ig.row[ig.placements[p].entry],
                                   static_cast<uint32_t>(p));
    std::sort(ig.applyOrder.begin(), ig.applyOrder.end());
    for (const auto &[row, pidx] : ig.applyOrder) {
        const auto &pl = ig.placements[pidx];
        const Record &rec = records[pl.rec];
        BucketView b = bucket(row);
        {
            const RowWriteGuard wg(*this, row);
            b.writeSlot(pl.slot, rec.key, rec.data);
            // The filter replays the serial order: insert() added the
            // copy, and -- for dead placements -- removePlacement()
            // took it back out (sticky counter saturation makes the
            // add/remove pair idempotent-at-worst, never unsound).
            filter_.add(row, rec.key);
            if (pl.dead) {
                b.clearSlot(pl.slot);
                filter_.remove(row, rec.key);
            }
        }
        if (pl.dead) {
            // Serial rollback adds the distance sample and then removes
            // it; Histogram::remove never shrinks the bin vector, so
            // replay the pair to keep loadStats() bins bit-identical.
            distanceHist.add(pl.d);
            distanceHist.remove(pl.d);
            continue;
        }
        ++homeDemandPerBucket[ig.row[pl.homeEntry]];
        distanceHist.add(pl.d);
        ++recordCount;
        if (pl.d > 0) {
            ++spilledCount;
            ++sum.spilledPlacements;
        }
    }
    sum.rowFetches = ig.row.size();
    for (std::size_t e = 0; e < ig.row.size(); ++e) {
        const bool aux_changed = ig.used[e] != ig.usedAtFetch[e] ||
                                 ig.reach[e] != ig.reachAtFetch[e];
        if (aux_changed) {
            BucketView b = bucket(ig.row[e]);
            const RowWriteGuard wg(*this, ig.row[e]);
            b.setUsedCount(ig.used[e]);
            b.setReach(ig.reach[e]);
            filter_.setReach(ig.row[e], ig.reach[e]);
        }
        if (aux_changed || ig.dirty[e])
            ++sum.rowWritebacks;
    }
    return sum;
}

InsertBatchSummary
CaRamSlice::insertBatch(const Record *records, unsigned n,
                        InsertOutcome *outcomes)
{
    InsertBatchSummary sum;
    for (unsigned off = 0; off < n; off += kMaxIngestBatch) {
        const unsigned chunk = std::min(kMaxIngestBatch, n - off);
        sum.merge(insertBatchChunk(records + off, chunk,
                                   outcomes ? outcomes + off : nullptr));
    }
    return sum;
}

InsertBatchSummary
CaRamSlice::insertBatch(std::span<const Record> records,
                        InsertOutcome *outcomes)
{
    return insertBatch(records.data(),
                       static_cast<unsigned>(records.size()), outcomes);
}

bool
CaRamSlice::searchChain(uint64_t home,
                        const MatchProcessor::PackedKey &packed,
                        SearchResult &best, std::vector<uint64_t> *trace)
{
    // With the pre-filter consulted, the chain length comes from the
    // filter's reach mirror (no home-row touch) and provably-miss rows
    // are skipped before the fetch and the bucketsAccessed charge --
    // only the skip changes; a row that is fetched is matched exactly
    // as before, so hit payloads and non-skipped accounting are
    // bit-identical to the unfiltered walk.
    const bool pf = prefilterActive();
    uint64_t sig = 0;
    bool sig_usable = false;
    unsigned reach;
    if (pf) {
        sig_usable = packed.key.fullySpecified();
        sig = RowPrefilter::signatureOf(packed.key);
        reach = filter_.reach(home);
    } else {
        reach = bucket(home).reach();
    }
    for (unsigned d = 0; d <= reach; ++d) {
        const uint64_t row = probeRow(home, d, packed.key);
        if (pf) {
            prefilterProbes_.fetch_add(1, std::memory_order_relaxed);
            if (!filter_.mayMatch(row, sig, sig_usable)) {
                prefilterSkips_.fetch_add(1,
                                          std::memory_order_relaxed);
                continue;
            }
        }
        ++best.bucketsAccessed;
        if (trace)
            trace->push_back(row);
        BucketView b = bucket(row);
        const BucketMatch m = cfg.lpm
            ? matcher.searchBucketBestPacked(b, packed)
            : matcher.searchBucketPacked(b, packed);
        if (!m.hit)
            continue;
        if (!cfg.lpm) {
            best.hit = true;
            best.multipleMatch = m.multipleMatch;
            best.row = row;
            best.slot = m.slot;
            best.data = m.data;
            best.key = m.key;
            return true;
        }
        // LPM: keep the match with the most specified bits across the
        // whole probe chain (spilled entries are the lower-priority
        // ones, but a spilled long prefix must still win).
        const unsigned pop = m.key.carePopcount();
        if (!best.hit || pop > best.key.carePopcount()) {
            best.hit = true;
            best.multipleMatch = m.multipleMatch;
            best.row = row;
            best.slot = m.slot;
            best.data = m.data;
            best.key = m.key;
        }
    }
    return false;
}

SearchResult
CaRamSlice::search(const Key &search_key)
{
    const ScratchUse guard(*this);
    ++searchCount;
    SearchResult best;
    matcher.pack(search_key, packedKey_);
    // A search key with don't-care bits in hash positions must access
    // every candidate bucket (section 4, "Discussions").
    for (uint64_t home : homeRowsInto(search_key)) {
        if (searchChain(home, packedKey_, best, nullptr))
            break; // non-LPM first hit
    }
    accessCount += best.bucketsAccessed;
    return best;
}

SearchResult
CaRamSlice::searchTraced(const Key &search_key,
                         std::vector<uint64_t> &rows_accessed)
{
    const ScratchUse guard(*this);
    ++searchCount;
    SearchResult best;
    matcher.pack(search_key, packedKey_);
    for (uint64_t home : homeRowsInto(search_key)) {
        if (searchChain(home, packedKey_, best, &rows_accessed))
            break;
    }
    accessCount += best.bucketsAccessed;
    return best;
}

void
CaRamSlice::packSearchKey(const Key &search_key,
                          MatchProcessor::PackedKey &out) const
{
    if (search_key.bits() != cfg.logicalKeyBits)
        fatal("key width does not match the slice configuration");
    matcher.pack(search_key, out);
}

void
CaRamSlice::candidateHomes(const Key &search_key,
                           std::vector<uint64_t> &out) const
{
    if (search_key.bits() != cfg.logicalKeyBits)
        fatal("key width does not match the slice configuration");
    out.clear();
    // Same fast path and ordering as homeRowsInto().
    if (search_key.fullySpecified())
        out.push_back(idxGen->index(search_key.valueWords(),
                                    search_key.bits()));
    else
        idxGen->candidateIndices(search_key.valueWords(),
                                 search_key.careWords(),
                                 search_key.bits(), out);
}

void
CaRamSlice::prefilterPruneHomes(const Key &search_key,
                                std::vector<uint64_t> &homes)
{
    if (!prefilterActive())
        return;
    const uint64_t sig = RowPrefilter::signatureOf(search_key);
    const bool sig_usable = search_key.fullySpecified();
    std::size_t w = 0;
    for (const uint64_t home : homes) {
        unsigned reach = 0;
        const bool may =
            filter_.consultHome(home, sig, sig_usable, reach);
        if (!may && reach == 0) {
            // The chain is this single row and it provably cannot
            // match: a shard walk would have consulted it once and
            // skipped -- charge exactly that, and drop the home so no
            // sub-task is enqueued for it.
            prefilterProbes_.fetch_add(1, std::memory_order_relaxed);
            prefilterSkips_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        homes[w++] = home;
    }
    homes.resize(w);
}

SearchResult
CaRamSlice::searchRows(const MatchProcessor::PackedKey &packed,
                       const uint64_t *homes, unsigned n)
{
    SearchResult best;
    for (unsigned i = 0; i < n; ++i) {
        if (searchChain(homes[i], packed, best, nullptr))
            break; // non-LPM first hit within this shard
    }
    return best;
}

SearchResult
CaRamSlice::mergeShardResults(const SearchResult *shards, unsigned n,
                              bool lpm)
{
    SearchResult merged;
    unsigned accesses = 0;
    for (unsigned i = 0; i < n; ++i) {
        const SearchResult &s = shards[i];
        accesses += s.bucketsAccessed;
        if (!lpm) {
            // Serial early exit: the first hitting shard is where the
            // serial chain would have stopped -- its bucketsAccessed
            // already ends at the hit row, and later shards' walks are
            // speculative work the serial cost never pays.
            if (s.hit) {
                merged = s;
                merged.bucketsAccessed = accesses;
                return merged;
            }
            continue;
        }
        // LPM walks everything; first-max-wins across shards in home
        // order, matching searchChain()'s strictly-greater rule.
        if (s.hit && (!merged.hit ||
                      s.key.carePopcount() > merged.key.carePopcount())) {
            merged = s;
        }
    }
    merged.bucketsAccessed = accesses;
    return merged;
}

void
CaRamSlice::noteFanoutSearch(unsigned buckets_accessed)
{
    ++searchCount;
    accessCount += buckets_accessed;
}

bool
CaRamSlice::tearPending() const
{
    const unsigned every = tearEvery_.load(std::memory_order_relaxed);
    if (every == 0)
        return false;
    return snapshotTick_.fetch_add(1, std::memory_order_relaxed) % every ==
           every - 1;
}

void
CaRamSlice::setTornReadInjection(unsigned every)
{
    tearEvery_.store(every, std::memory_order_relaxed);
}

uint64_t
CaRamSlice::tornReadRetries() const
{
    return tornRetries_.load(std::memory_order_relaxed);
}

void
CaRamSlice::snapshotRowConcurrent(uint64_t row, uint64_t *dst) const
{
    const std::atomic<uint64_t> &seq = rowSeqs_[row & seqMask_].v;
    // Injection fires at most once per snapshot, or every==1 would
    // retry forever.
    bool inject = tearPending();
    for (;;) {
        const uint64_t s1 = seq.load(std::memory_order_acquire);
        if (s1 & 1)
            continue; // writer mid-row: wait for the even value
        array_.snapshotRowInto(row, dst);
        // Acquire fence before the validation re-read: if any copied
        // word came from inside or after a write section, the re-read
        // is guaranteed to observe that writer's odd/advanced sequence.
        std::atomic_thread_fence(std::memory_order_acquire);
        const uint64_t s2 = seq.load(std::memory_order_relaxed);
        if (s1 == s2) {
            if (!inject)
                return;
            inject = false;
        }
        tornRetries_.fetch_add(1, std::memory_order_relaxed);
    }
}

bool
CaRamSlice::prefilterMayMatchConcurrent(uint64_t row, uint64_t sig,
                                        bool sig_usable) const
{
    // Same validation shape as snapshotRowConcurrent(), but a failed
    // validation declines to prune instead of retrying: every filter
    // write happens inside the row's writer section, so a quiescent
    // stripe across the read means the words form a published filter
    // state, whose verdict is sound (one-sided error, DESIGN.md 4e).
    const std::atomic<uint64_t> &seq = rowSeqs_[row & seqMask_].v;
    const uint64_t s1 = seq.load(std::memory_order_acquire);
    if (s1 & 1)
        return true; // writer mid-row
    const bool may = filter_.mayMatch(row, sig, sig_usable);
    std::atomic_thread_fence(std::memory_order_acquire);
    const uint64_t s2 = seq.load(std::memory_order_relaxed);
    return s1 != s2 || may;
}

bool
CaRamSlice::prefilterConsultHomeConcurrent(uint64_t home, uint64_t sig,
                                           bool sig_usable,
                                           unsigned &reach_out,
                                           bool &valid) const
{
    const std::atomic<uint64_t> &seq = rowSeqs_[home & seqMask_].v;
    const uint64_t s1 = seq.load(std::memory_order_acquire);
    valid = false;
    if (s1 & 1)
        return true;
    const bool may =
        filter_.consultHome(home, sig, sig_usable, reach_out);
    std::atomic_thread_fence(std::memory_order_acquire);
    const uint64_t s2 = seq.load(std::memory_order_relaxed);
    if (s1 != s2)
        return true;
    valid = true;
    return may;
}

SearchResult
CaRamSlice::searchConcurrent(const Key &search_key,
                             ConcurrentSearchScratch &scratch) const
{
    if (search_key.bits() != cfg.logicalKeyBits)
        fatal("key width does not match the slice configuration");
    if (!scratch.row || scratch.rowBits != cfg.storageRowBits()) {
        scratch.row =
            std::make_unique<mem::MemoryArray>(1, cfg.storageRowBits());
        scratch.rowBits = cfg.storageRowBits();
    }
    matcher.pack(search_key, scratch.packed);
    candidateHomes(search_key, scratch.homes);

    // Every row the chain touches is matched against the validated
    // snapshot in scratch.row, so the existing matcher and aux-decode
    // paths run unchanged over row 0 of the private one-row array.
    uint64_t *dst = scratch.row->rowData(0);
    BucketView sb(*scratch.row, cfg, 0);
    const bool pf = prefilterActive();
    uint64_t sig = 0;
    bool sig_usable = false;
    if (pf) {
        sig = RowPrefilter::signatureOf(search_key);
        sig_usable = search_key.fullySpecified();
    }
    SearchResult best;
    for (uint64_t home : scratch.homes) {
        // A validated home consult that fails skips the home row's
        // snapshot and walks the rest of the chain with the mirrored
        // reach (which only ever grows outside whole-array rewrites,
        // and those hold every stripe odd -- the consult declines).
        // Any failed validation falls back to the snapshot path.
        unsigned reach;
        bool home_skipped = false;
        bool consulted = false;
        if (pf) {
            bool valid = false;
            prefilterProbes_.fetch_add(1, std::memory_order_relaxed);
            const bool may = prefilterConsultHomeConcurrent(
                home, sig, sig_usable, reach, valid);
            if (valid && !may) {
                prefilterSkips_.fetch_add(1,
                                          std::memory_order_relaxed);
                home_skipped = true;
                consulted = true;
            }
        }
        if (!consulted) {
            // One snapshot serves both the reach read and the d == 0
            // match, so the home row's observation is internally
            // consistent (the serial path reads the row twice;
            // between-mutation states are indistinguishable
            // row-locally).
            snapshotRowConcurrent(home, dst);
            reach = sb.reach();
        }
        bool early_exit = false;
        for (unsigned d = 0; d <= reach; ++d) {
            if (d == 0 && home_skipped)
                continue;
            if (d > 0) {
                const uint64_t row = probeRow(home, d, search_key);
                if (pf) {
                    prefilterProbes_.fetch_add(
                        1, std::memory_order_relaxed);
                    if (!prefilterMayMatchConcurrent(row, sig,
                                                     sig_usable)) {
                        prefilterSkips_.fetch_add(
                            1, std::memory_order_relaxed);
                        continue;
                    }
                }
                snapshotRowConcurrent(row, dst);
            }
            ++best.bucketsAccessed;
            const BucketMatch m = cfg.lpm
                ? matcher.searchBucketBestPacked(sb, scratch.packed)
                : matcher.searchBucketPacked(sb, scratch.packed);
            if (!m.hit)
                continue;
            if (!cfg.lpm) {
                best.hit = true;
                best.multipleMatch = m.multipleMatch;
                best.row = probeRow(home, d, search_key);
                best.slot = m.slot;
                best.data = m.data;
                best.key = m.key;
                early_exit = true;
                break;
            }
            const unsigned pop = m.key.carePopcount();
            if (!best.hit || pop > best.key.carePopcount()) {
                best.hit = true;
                best.multipleMatch = m.multipleMatch;
                best.row = probeRow(home, d, search_key);
                best.slot = m.slot;
                best.data = m.data;
                best.key = m.key;
            }
        }
        if (early_exit)
            break;
    }
    return best;
}

uint64_t
CaRamSlice::searchGroupChain(uint64_t home, unsigned reach,
                             const uint32_t *idx, unsigned group_size,
                             SearchResult *out, bool pf)
{
    auto &sc = batch_;
    const MatchProcessor::PackedKey *ptrs[kernels::kMaxGroupKeys];
    for (unsigned k = 0; k < group_size; ++k)
        ptrs[k] = &sc.packed[idx[k]];
    matcher.packGroup(ptrs, group_size, sc.group);

    // Pre-filter each live lane against the shared row: a lane that
    // fails is exactly the key a serial filtered searchChain() would
    // have skipped the row for (no bucketsAccessed charge, no match
    // attempt), and the row is fetched only when at least one lane
    // still needs it -- whole groups skip guaranteed-miss rows.
    auto passMask = [&](uint64_t row, uint32_t lanes) -> uint32_t {
        if (!pf)
            return lanes;
        uint32_t pass = lanes;
        for (uint32_t m = lanes; m; m &= m - 1) {
            const unsigned k =
                static_cast<unsigned>(std::countr_zero(m));
            prefilterProbes_.fetch_add(1, std::memory_order_relaxed);
            if (!filter_.mayMatch(row, sc.sig[idx[k]],
                                  sc.sigUsable[idx[k]] != 0)) {
                prefilterSkips_.fetch_add(1,
                                          std::memory_order_relaxed);
                pass &= ~(1u << k);
            }
        }
        return pass;
    };

    uint64_t fetches = 0;
    if (!cfg.lpm) {
        // Keys leave the group on their first hit, exactly where the
        // serial chain walk would stop counting accesses for them.
        uint32_t alive = sc.group.keyMask;
        for (unsigned d = 0; d <= reach && alive; ++d) {
            // The probe row is key-independent on this path (d == 0, or
            // Linear probing) -- any group member's key works.
            const uint64_t row = probeRow(home, d, ptrs[0]->key);
            const uint32_t pass = passMask(row, alive);
            if (!pass)
                continue;
            ++fetches;
            for (uint32_t m = pass; m; m &= m - 1)
                ++out[idx[std::countr_zero(m)]].bucketsAccessed;
            matcher.searchBucketKeys(bucket(row), sc.group, pass,
                                     sc.groupOut.data());
            for (uint32_t m = pass; m; m &= m - 1) {
                const unsigned k =
                    static_cast<unsigned>(std::countr_zero(m));
                const BucketMatch &bm = sc.groupOut[k];
                if (!bm.hit)
                    continue;
                SearchResult &r = out[idx[k]];
                r.hit = true;
                r.multipleMatch = bm.multipleMatch;
                r.row = row;
                r.slot = bm.slot;
                r.data = bm.data;
                r.key = bm.key;
                alive &= ~(1u << k);
            }
        }
    } else {
        // LPM: every key walks the whole chain, keeping its best match
        // by specified-bit count (same merge as searchChain).
        for (unsigned d = 0; d <= reach; ++d) {
            const uint64_t row = probeRow(home, d, ptrs[0]->key);
            const uint32_t pass = passMask(row, sc.group.keyMask);
            if (!pass)
                continue;
            ++fetches;
            for (uint32_t m = pass; m; m &= m - 1)
                ++out[idx[std::countr_zero(m)]].bucketsAccessed;
            matcher.searchBucketBestKeys(bucket(row), sc.group, pass,
                                         sc.groupOut.data());
            for (uint32_t m = pass; m; m &= m - 1) {
                const unsigned k =
                    static_cast<unsigned>(std::countr_zero(m));
                const BucketMatch &bm = sc.groupOut[k];
                if (!bm.hit)
                    continue;
                SearchResult &r = out[idx[k]];
                const unsigned pop = bm.key.carePopcount();
                if (!r.hit || pop > r.key.carePopcount()) {
                    r.hit = true;
                    r.multipleMatch = bm.multipleMatch;
                    r.row = row;
                    r.slot = bm.slot;
                    r.data = bm.data;
                    r.key = bm.key;
                }
            }
        }
    }
    return fetches;
}

uint64_t
CaRamSlice::searchBatchChunk(const Key *const *keys, unsigned n,
                             SearchResult *out)
{
    const ScratchUse guard(*this);
    auto &sc = batch_;
    uint64_t fetches = 0;
    unsigned groupable = 0;
    ++batchChunks_;
    const bool pf = prefilterActive();
    // Prefetch cap: the slot windows a lookup touches first live at the
    // front of the row; very wide rows are not worth the request-buffer
    // pressure.
    const uint64_t pf_bytes =
        std::min<uint64_t>(array_.wordsPerRow() * 8, 512);
    for (unsigned i = 0; i < n; ++i) {
        ++searchCount;
        out[i] = SearchResult{};
        matcher.pack(*keys[i], sc.packed[i]);
        if (pf) {
            // Signatures computed once per key, alongside packing --
            // every row the grouped walk consults reuses them.
            sc.sig[i] = RowPrefilter::signatureOf(*keys[i]);
            sc.sigUsable[i] = keys[i]->fullySpecified() ? 1 : 0;
        }
        const auto &homes = homeRowsInto(*keys[i]);
        if (homes.size() == 1) {
            sc.home[i] = homes[0];
            // The chunk's home rows are all known before any row is
            // matched: prefetching here overlaps the DRAM misses with
            // the remaining packing work and with one another.
            mem::prefetchSpan(array_.rowData(homes[0]), pf_bytes);
            sc.order[groupable++] = i;
            continue;
        }
        // Don't-care bits in hash positions: the key must access every
        // candidate bucket -- serial walk, identical to search().
        for (uint64_t home : homes) {
            if (searchChain(home, sc.packed[i], out[i], nullptr))
                break;
        }
        fetches += out[i].bucketsAccessed;
        accessCount += out[i].bucketsAccessed;
    }

    // Group single-home keys by home bucket; ties keep submission order
    // so a group's first-hit bookkeeping mirrors the serial stream.
    // Bursty streams usually arrive already run-ordered -- an O(n)
    // pre-scan skips the sort then (sc.order is filled in submission
    // order, so ties are already where the sort would leave them).
    bool run_ordered = true;
    for (unsigned j = 1; j < groupable; ++j) {
        if (sc.home[sc.order[j - 1]] > sc.home[sc.order[j]]) {
            run_ordered = false;
            break;
        }
    }
    if (run_ordered)
        ++batchSortsSkipped_;
    else
        std::sort(sc.order.begin(), sc.order.begin() + groupable,
                  [&sc](uint32_t a, uint32_t b) {
                      return sc.home[a] != sc.home[b]
                                 ? sc.home[a] < sc.home[b]
                                 : a < b;
                  });
    unsigned pos = 0;
    while (pos < groupable) {
        const uint64_t home = sc.home[sc.order[pos]];
        unsigned end = pos + 1;
        while (end < groupable && sc.home[sc.order[end]] == home)
            ++end;
        // The filtered serial walk reads reach from the filter mirror
        // (no home-row touch); the grouped walk must match it.
        const unsigned reach =
            pf ? filter_.reach(home) : bucket(home).reach();
        // SecondHash probe rows depend on the key, so a chain that
        // leaves the home bucket cannot be shared.
        const bool shareable =
            cfg.probe != ProbePolicy::SecondHash || reach == 0;
        if (!shareable || end - pos == 1) {
            for (unsigned j = pos; j < end; ++j) {
                const unsigned i = sc.order[j];
                searchChain(home, sc.packed[i], out[i], nullptr);
                fetches += out[i].bucketsAccessed;
                accessCount += out[i].bucketsAccessed;
            }
        } else {
            for (unsigned j = pos; j < end;
                 j += kernels::kMaxGroupKeys) {
                const unsigned gsz = std::min(
                    kernels::kMaxGroupKeys, end - j);
                fetches += searchGroupChain(home, reach,
                                            sc.order.data() + j, gsz,
                                            out, pf);
                for (unsigned k = 0; k < gsz; ++k) {
                    accessCount +=
                        out[sc.order[j + k]].bucketsAccessed;
                }
            }
        }
        pos = end;
    }
    return fetches;
}

uint64_t
CaRamSlice::searchBatch(const Key *const *keys, unsigned n,
                        SearchResult *out)
{
    uint64_t fetches = 0;
    for (unsigned off = 0; off < n; off += kMaxBatch) {
        const unsigned chunk = std::min(kMaxBatch, n - off);
        fetches += searchBatchChunk(keys + off, chunk, out + off);
    }
    return fetches;
}

uint64_t
CaRamSlice::searchBatch(std::span<const Key> keys, SearchResult *out)
{
    uint64_t fetches = 0;
    std::array<const Key *, kMaxBatch> ptrs;
    for (std::size_t off = 0; off < keys.size(); off += kMaxBatch) {
        const unsigned chunk = static_cast<unsigned>(
            std::min<std::size_t>(kMaxBatch, keys.size() - off));
        for (unsigned i = 0; i < chunk; ++i)
            ptrs[i] = &keys[off + i];
        fetches += searchBatchChunk(ptrs.data(), chunk, out + off);
    }
    return fetches;
}

bool
CaRamSlice::eraseAt(uint64_t home, const MatchProcessor::PackedKey &packed)
{
    const Key &key = packed.key;
    const unsigned reach = bucket(home).reach();
    for (unsigned d = 0; d <= reach; ++d) {
        const uint64_t row = probeRow(home, d, key);
        BucketView b = bucket(row);
        const int slot = matcher.findEqualPacked(b, packed);
        if (slot < 0)
            continue;
        {
            const RowWriteGuard wg(*this, row);
            filter_.remove(row, key);
            b.clearSlot(static_cast<unsigned>(slot));
            b.setUsedCount(b.usedCount() - 1);
        }
        // The home bucket's reach is left unchanged (a conservative
        // over-approximation); adoptRamContents() tightens it.
        --homeDemandPerBucket[home];
        distanceHist.remove(d);
        --recordCount;
        if (d > 0)
            --spilledCount;
        return true;
    }
    return false;
}

unsigned
CaRamSlice::erase(const Key &key)
{
    const ScratchUse guard(*this);
    unsigned removed = 0;
    const auto &homes = homeRowsInto(key);
    matcher.pack(key, packedKey_);
    for (uint64_t home : homes)
        removed += eraseAt(home, packedKey_) ? 1 : 0;
    return removed;
}

uint64_t
CaRamSlice::countMatching(const Key &pattern)
{
    if (pattern.bits() != cfg.logicalKeyBits)
        fatal("pattern width does not match the slice configuration");
    const ScratchUse guard(*this);
    uint64_t matched = 0;
    matcher.pack(pattern, packedKey_);
    for (uint64_t row = 0; row < cfg.rows(); ++row) {
        ++accessCount;
        matched += matcher.countMatches(bucket(row), packedKey_);
    }
    return matched;
}

uint64_t
CaRamSlice::updateMatching(const Key &pattern, uint64_t new_data)
{
    if (pattern.bits() != cfg.logicalKeyBits)
        fatal("pattern width does not match the slice configuration");
    if (cfg.dataBits == 0)
        fatal("slice stores no data field to update");
    const ScratchUse guard(*this);
    uint64_t updated = 0;
    matcher.pack(pattern, packedKey_);
    for (uint64_t row = 0; row < cfg.rows(); ++row) {
        ++accessCount;
        BucketView b = bucket(row);
        for (unsigned i = 0; i < b.slots(); ++i) {
            if (!matcher.slotMatchesPacked(b, i, packedKey_))
                continue;
            {
                const RowWriteGuard wg(*this, row);
                b.writeSlot(i, b.slotKey(i), new_data);
            }
            ++updated;
        }
    }
    return updated;
}

uint64_t
CaRamSlice::ramLoad(uint64_t word_addr) const
{
    return array_.loadWord(word_addr);
}

void
CaRamSlice::ramStore(uint64_t word_addr, uint64_t value)
{
    // Raw stores rewrite row bits behind the filter's back: declare it
    // stale until adoptRamContents()/clear() rebuild it wholesale.
    filter_.suspend();
    const RowWriteGuard wg(*this, word_addr / array_.wordsPerRow());
    array_.storeWord(word_addr, value);
}

void
CaRamSlice::adoptRamContents()
{
    const AllRowsWriteGuard wg(*this);
    homeDemandPerBucket.assign(cfg.rows(), 0);
    distanceHist = Histogram();
    recordCount = 0;
    spilledCount = 0;
    // Wholesale filter rebuild from the adopted bits; also lifts a
    // ramStore() suspension (the only way to lift one).
    filter_.clearAll();

    // First pass: fix every row's used count and clear its reach.
    for (uint64_t row = 0; row < cfg.rows(); ++row) {
        BucketView b = bucket(row);
        b.setUsedCount(b.recountUsed());
        b.setReach(0);
    }
    // Second pass: recompute demand, distances and reach from the keys.
    const uint64_t rows = cfg.rows();
    const auto wrap_dist = [rows](uint64_t row, uint64_t home) {
        return static_cast<unsigned>((row + rows - home) % rows);
    };
    for (uint64_t row = 0; row < cfg.rows(); ++row) {
        BucketView b = bucket(row);
        for (unsigned i = 0; i < b.slots(); ++i) {
            if (!b.slotValid(i))
                continue;
            const Key key = b.slotKey(i);
            uint64_t home = row;
            unsigned dist = 0;
            if (key.fullySpecified() || !cfg.ternary) {
                home = homeRow(key);
                dist = wrap_dist(row, home);
                if (dist > cfg.maxProbeDistance) {
                    warn(strprintf("adopted record at row %llu is beyond "
                                   "the probe limit; treating it as local",
                                   (unsigned long long)row));
                    home = row;
                    dist = 0;
                }
            } else {
                // A duplicated ternary copy: its own row is one of its
                // candidate homes (possibly after probing); attribute it
                // to the nearest candidate.
                unsigned best = cfg.maxProbeDistance + 1;
                for (uint64_t cand : homeRows(key)) {
                    const auto d = wrap_dist(row, cand);
                    if (d < best) {
                        best = d;
                        home = cand;
                    }
                }
                dist = best <= cfg.maxProbeDistance ? best : 0;
            }
            ++homeDemandPerBucket[home];
            distanceHist.add(dist);
            ++recordCount;
            if (dist > 0)
                ++spilledCount;
            filter_.add(row, key);
            BucketView home_bucket = bucket(home);
            const unsigned reach = std::max(home_bucket.reach(), dist);
            home_bucket.setReach(reach);
            filter_.setReach(home, reach);
        }
    }
}

unsigned
CaRamSlice::maintenanceScanRow(uint64_t row, std::vector<MaintenanceSlot> &out)
{
    out.clear();
    if (row >= cfg.rows())
        panic("maintenance scan beyond the row space");
    BucketView b = bucket(row);
    const unsigned max_d =
        cfg.probe == ProbePolicy::None ? 0 : cfg.maxProbeDistance;
    for (unsigned i = 0; i < b.slots(); ++i) {
        if (!b.slotValid(i))
            continue;
        Key key = b.slotKey(i);
        if (!key.fullySpecified())
            continue;
        const uint64_t home = idxGen->index(key.valueWords(), key.bits());
        unsigned dist = ~0u;
        for (unsigned d = 0; d <= max_d; ++d) {
            if (probeRow(home, d, key) == row) {
                dist = d;
                break;
            }
        }
        // Unattributable copy (RAM-mode store beyond the probe limit):
        // leave it where it is.
        if (dist == ~0u)
            continue;
        const uint64_t data = b.slotData(i);
        out.push_back(MaintenanceSlot{i, Record{std::move(key), data}, home,
                                      dist});
    }
    return static_cast<unsigned>(out.size());
}

bool
CaRamSlice::maintenanceHasCloserSlot(uint64_t home, unsigned distance,
                                     const Key &key)
{
    for (unsigned d = 0; d < distance; ++d) {
        if (bucket(probeRow(home, d, key)).firstFreeSlot() >= 0)
            return true;
    }
    return false;
}

unsigned
CaRamSlice::maintenanceTrimReach(uint64_t home)
{
    if (cfg.probe != ProbePolicy::Linear)
        return 0;
    BucketView home_bucket = bucket(home);
    const unsigned cur = home_bucket.reach();
    if (cur == 0)
        return 0;
    // Walk the (shared, key-independent) linear chain tail-first and
    // keep the furthest distance whose row still holds a record that
    // could belong to @p home.  A copy actually placed from @p home
    // always lists @p home among its candidates, so the recomputed
    // reach never under-sets.
    unsigned new_reach = 0;
    std::vector<uint64_t> cand;
    for (unsigned d = cur; d >= 1 && new_reach == 0; --d) {
        const uint64_t row = (home + d) % cfg.rows();
        BucketView b = bucket(row);
        for (unsigned i = 0; i < b.slots(); ++i) {
            if (!b.slotValid(i))
                continue;
            const Key key = b.slotKey(i);
            if (key.fullySpecified()) {
                if (idxGen->index(key.valueWords(), key.bits()) == home) {
                    new_reach = d;
                    break;
                }
                continue;
            }
            idxGen->candidateIndices(key.valueWords(), key.careWords(),
                                     key.bits(), cand);
            if (std::find(cand.begin(), cand.end(), home) != cand.end()) {
                new_reach = d;
                break;
            }
        }
    }
    if (new_reach >= cur)
        return 0;
    {
        const RowWriteGuard wg(*this, home);
        home_bucket.setReach(new_reach);
        filter_.setReach(home, new_reach);
    }
    return cur - new_reach;
}

LoadStats
CaRamSlice::loadStats() const
{
    LoadStats s;
    s.buckets = cfg.rows();
    s.slotsPerBucket = cfg.slotsPerBucket;
    s.records = recordCount;
    s.spilledRecords = spilledCount;
    s.distance = distanceHist;
    for (uint32_t demand : homeDemandPerBucket) {
        s.homeDemand.add(demand);
        if (demand > cfg.slotsPerBucket)
            ++s.overflowingBuckets;
    }
    return s;
}

Histogram
CaRamSlice::occupancyHistogram() const
{
    // The aux used count lives just past the slots in each row;
    // checkIntegrity() verifies it against the raw array.
    const uint64_t aux_lo =
        static_cast<uint64_t>(cfg.slotsPerBucket) * cfg.slotBits();
    Histogram h;
    for (uint64_t row = 0; row < cfg.rows(); ++row)
        h.add(array_.readBits(row, aux_lo, 16));
    return h;
}

void
CaRamSlice::clear()
{
    const AllRowsWriteGuard wg(*this);
    array_.clearAll();
    filter_.clearAll();
    homeDemandPerBucket.assign(cfg.rows(), 0);
    distanceHist = Histogram();
    recordCount = 0;
    spilledCount = 0;
    searchCount = 0;
    accessCount = 0;
    batchChunks_ = 0;
    batchSortsSkipped_ = 0;
    prefilterProbes_.store(0, std::memory_order_relaxed);
    prefilterSkips_.store(0, std::memory_order_relaxed);
}

void
CaRamSlice::checkIntegrity()
{
    uint64_t total = 0;
    for (uint64_t row = 0; row < cfg.rows(); ++row) {
        BucketView b = bucket(row);
        const unsigned recount = b.recountUsed();
        if (recount != b.usedCount())
            panic(strprintf("row %llu: aux used count %u != recount %u",
                            (unsigned long long)row, b.usedCount(),
                            recount));
        total += recount;
    }
    if (total != recordCount)
        panic(strprintf("stored records %llu != tracked count %llu",
                        (unsigned long long)total,
                        (unsigned long long)recordCount));
}

} // namespace caram::core
