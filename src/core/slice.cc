#include "core/slice.h"

#include <algorithm>
#include <bit>

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

} // namespace

CaRamSlice::ScratchUse::ScratchUse(const CaRamSlice &s) : slice_(s)
{
    if (slice_.scratchGuard_.fetch_add(1, std::memory_order_acq_rel) != 0)
        panic("concurrent use of per-slice scratch: shard workers must "
              "use packSearchKey/candidateHomes/searchRows with "
              "shard-local scratch, never search/erase");
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
      matcher(cfg)
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

void
CaRamSlice::prefetchHome(const Key &key) const
{
    if (key.bits() != cfg.logicalKeyBits || !key.fullySpecified())
        return;
    const uint64_t *row =
        array_.rowData(idxGen->index(key.valueWords(), key.bits()));
    const uint64_t row_words = array_.wordsPerRow();
    // A very wide row is not worth the request-buffer pressure.
    mem::prefetchSpan(row, std::min<uint64_t>(row_words * 8, 512));
    mem::prefetchRead(row + row_words - 1);
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
        noteRowDirty(row);
        b.writeSlot(static_cast<unsigned>(slot), record.key, record.data);
        b.setUsedCount(b.usedCount() + 1);
        filter_.add(row, record.key);
        BucketView home = bucket(home_row);
        noteRowDirty(home_row);
        const unsigned reach = std::max(home.reach(), d);
        home.setReach(reach);
        filter_.setReach(home_row, reach);
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
    noteRowDirty(placement.placedRow);
    // The placement carries no key: read it back before the clear so
    // the filter's counters can be lowered for the right key.
    filter_.remove(placement.placedRow, b.slotKey(placement.slot));
    b.clearSlot(placement.slot);
    b.setUsedCount(b.usedCount() - 1);
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
    auto prefetchAt = [&](unsigned i) {
        if (i >= n || ig.pfRow[i] == kNoPrefetch)
            return;
        const uint64_t *base = array_.rowData(ig.pfRow[i]);
        mem::prefetchSpan(base, pf_bytes);
        if (aux_byte >= pf_bytes)
            mem::prefetchRead(reinterpret_cast<const char *>(base) +
                              aux_byte);
    };
    for (unsigned i = 0; i < kPrefetchAhead && i < n; ++i)
        prefetchAt(i);

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
        prefetchAt(i + kPrefetchAhead);
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
        noteRowDirty(row);
        b.writeSlot(pl.slot, rec.key, rec.data);
        // The filter replays the serial order: insert() added the copy,
        // and -- for dead placements -- removePlacement() took it back
        // out (sticky counter saturation makes the add/remove pair
        // idempotent-at-worst, never unsound).
        filter_.add(row, rec.key);
        if (pl.dead) {
            b.clearSlot(pl.slot);
            filter_.remove(row, rec.key);
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
            noteRowDirty(ig.row[e]);
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
        noteRowDirty(row);
        filter_.remove(row, key);
        b.clearSlot(static_cast<unsigned>(slot));
        b.setUsedCount(b.usedCount() - 1);
        --homeDemandPerBucket[home];
        distanceHist.remove(d);
        --recordCount;
        if (d > 0)
            --spilledCount;
        // Elsewhere the home's reach stays as it was (a conservative
        // over-approximation); adoptRamContents() or rebuild tightens
        // it.
        if (!repairsOnErase())
            return true;
        if (d == reach)
            trimReach(home);
        fillHole(row, static_cast<unsigned>(slot));
        return true;
    }
    return false;
}

unsigned
CaRamSlice::slotValue(uint64_t row, unsigned slot, uint64_t *out) const
{
    const unsigned kb = cfg.logicalKeyBits;
    const uint64_t base = static_cast<uint64_t>(slot) * cfg.slotBits();
    for (unsigned lo = 0; lo < kb; lo += 64)
        out[lo / 64] = array_.readBits(row, base + lo, std::min(64u, kb - lo));
    return (kb + 63) / 64;
}

uint64_t
CaRamSlice::slotHome(uint64_t row, unsigned slot) const
{
    uint64_t v[Key::kWords];
    const unsigned words = slotValue(row, slot, v);
    return idxGen->index({v, words}, cfg.logicalKeyBits);
}

void
CaRamSlice::fillHole(uint64_t row, unsigned slot)
{
    // Invariant (DESIGN.md section 4f): every row from a live record's
    // home up to its row is full.  A chain can therefore pass the hole
    // only from a home at or behind it across full rows; `ahead` is
    // how far past the hole the farthest such chain reaches (an upper
    // bound once a trim has shortened one).
    const uint64_t rows = cfg.rows();
    const unsigned slots = cfg.slotsPerBucket;
    const unsigned max_back =
        static_cast<unsigned>(std::min<uint64_t>(cfg.maxProbeDistance,
                                                 rows - 1));
    unsigned ahead = bucket(row).reach();
    for (unsigned back = 1; back <= max_back; ++back) {
        BucketView hb = bucket((row + rows - back) % rows);
        if (hb.usedCount() < slots)
            break;
        ahead = std::max(ahead, hb.reach() > back ? hb.reach() - back : 0);
    }
    for (unsigned g = 1; g <= ahead; ++g) {
        const uint64_t r = (row + g) % rows;
        BucketView rb = bucket(r);
        // Candidates: records whose home is not in (hole, r], i.e. whose
        // chain covers the hole.  Take the farthest-displaced one, the
        // lowest slot on ties -- so no earlier copy of its key sits in
        // row r, and none sits in the rows between, which held no
        // candidate.
        int best = -1;
        unsigned best_d = 0;
        uint64_t best_home = 0;
        for (unsigned i = 0; i < slots; ++i) {
            if (!rb.slotValid(i))
                continue;
            const uint64_t h = slotHome(r, i);
            const auto d = static_cast<unsigned>((r + rows - h) % rows);
            // A RAM-adopted record beyond the probe limit counts as
            // local to its row (adoptRamContents()): never moved.
            if (d >= g && d <= cfg.maxProbeDistance &&
                (best < 0 || d > best_d)) {
                best = static_cast<int>(i);
                best_d = d;
                best_home = h;
            }
        }
        if (best < 0) {
            // A non-full row ends every chain that reaches it.
            if (rb.usedCount() < slots)
                return;
            continue;
        }
        const auto from = static_cast<unsigned>(best);
        uint64_t value[Key::kWords];
        uint64_t other[Key::kWords];
        const unsigned words = slotValue(r, from, value);
        BucketView hole = bucket(row);
        noteRowDirty(row);
        noteRowDirty(r);
        // A later copy of the same key in the hole row must stay behind
        // the moved record: slide the nearest one into the hole first
        // (same row, same distance), so the key's copies keep their
        // chain order and every search keeps its answer.
        for (unsigned j = slot + 1; j < slots; ++j) {
            if (hole.slotValid(j) && slotValue(row, j, other) == words &&
                std::equal(value, value + words, other)) {
                hole.writeSlot(slot, hole.slotKey(j), hole.slotData(j));
                hole.clearSlot(j);
                slot = j;
            }
        }
        const Key key = rb.slotKey(from);
        hole.writeSlot(slot, key, rb.slotData(from));
        hole.setUsedCount(hole.usedCount() + 1);
        filter_.add(row, key);
        filter_.remove(r, key);
        rb.clearSlot(from);
        rb.setUsedCount(rb.usedCount() - 1);
        distanceHist.remove(best_d);
        distanceHist.add(best_d - g);
        if (best_d == g)
            --spilledCount;
        if (best_d == bucket(best_home).reach())
            trimReach(best_home);
        // The vacated slot is the next hole.  Chains passing it: those
        // that passed the old hole and reach beyond r, plus those homed
        // in (old hole, r] -- the rows between were full.
        ahead -= g;
        for (unsigned k = 1; k <= g; ++k) {
            const unsigned reach = bucket((row + k) % rows).reach();
            ahead = std::max(ahead, reach > g - k ? reach - (g - k) : 0);
        }
        row = r;
        slot = from;
        g = 0;
    }
}

void
CaRamSlice::trimReach(uint64_t home)
{
    BucketView home_bucket = bucket(home);
    const unsigned cur = home_bucket.reach();
    unsigned reach = cur;
    for (; reach > 0; --reach) {
        const uint64_t row = (home + reach) % cfg.rows();
        BucketView b = bucket(row);
        bool found = false;
        for (unsigned i = 0; i < b.slots() && !found; ++i)
            found = b.slotValid(i) && slotHome(row, i) == home;
        if (found)
            break;
    }
    if (reach == cur)
        return;
    noteRowDirty(home);
    home_bucket.setReach(reach);
    filter_.setReach(home, reach);
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
            noteRowDirty(row);
            b.writeSlot(i, b.slotKey(i), new_data);
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
    noteRowDirty(word_addr / array_.wordsPerRow());
    array_.storeWord(word_addr, value);
}

void
CaRamSlice::adoptRamContents()
{
    noteAllRowsDirty();
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
    noteAllRowsDirty();
    array_.clearAll();
    filter_.clearAll();
    homeDemandPerBucket.assign(cfg.rows(), 0);
    distanceHist = Histogram();
    recordCount = 0;
    spilledCount = 0;
    searchCount = 0;
    accessCount = 0;
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
