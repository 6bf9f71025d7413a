#include "core/database.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "tech/area_model.h"
#include "tech/power_model.h"

namespace caram::core {

SliceConfig
DatabaseConfig::effectiveConfig() const
{
    SliceConfig eff = (gridVertical != 0 && gridHorizontal != 0)
        ? sliceShape.arrangedGrid(gridVertical, gridHorizontal)
        : sliceShape.arranged(physicalSlices, arrangement);
    if (overflow != OverflowPolicy::Probing) {
        // Spills go to the parallel overflow area; the main slice never
        // probes, which is what makes AMAL ~ 1 (section 4.3).
        eff.probe = ProbePolicy::None;
    }
    return eff;
}

Database::Database(DatabaseConfig config) : cfg(std::move(config))
{
    if (!cfg.indexFactory)
        fatal("database needs an index generator factory");
    const SliceConfig eff = cfg.effectiveConfig();
    eff.validate();
    slice_ = std::make_unique<CaRamSlice>(eff, cfg.indexFactory(eff));
    if (cfg.overflow == OverflowPolicy::ParallelTcam) {
        if (cfg.overflowCapacity == 0)
            fatal("parallel overflow TCAM needs a capacity");
        overflow_ = std::make_unique<cam::Tcam>(eff.logicalKeyBits,
                                                cfg.overflowCapacity);
    } else if (cfg.overflow == OverflowPolicy::ParallelSlice) {
        if (cfg.overflowIndexBits == 0 || cfg.overflowSlots == 0)
            fatal("parallel overflow slice needs a shape");
        SliceConfig ov = eff;
        ov.indexBits = cfg.overflowIndexBits;
        ov.rowOverride = 0;
        ov.slotsPerBucket = cfg.overflowSlots;
        ov.probe = ProbePolicy::Linear;
        ov.maxProbeDistance = static_cast<unsigned>(ov.rows() - 1);
        ov.validate();
        overflowSlice_ =
            std::make_unique<CaRamSlice>(ov, cfg.indexFactory(ov));
    }
}

PhysicalLayout
Database::layout() const
{
    if (cfg.gridVertical != 0 && cfg.gridHorizontal != 0) {
        return {cfg.sliceShape, cfg.gridVertical * cfg.gridHorizontal,
                Arrangement::Vertical, cfg.gridVertical};
    }
    return {cfg.sliceShape, cfg.physicalSlices, cfg.arrangement, 0};
}

void
Database::checkAccessible() const
{
    if (powerState() != PowerState::Active)
        fatal("database '" + cfg.name + "' is in data-retention mode");
}

bool
Database::insert(const Record &record, int priority)
{
    return insertDetailed(record, priority).ok;
}

Database::DetailedInsert
Database::insertDetailed(const Record &record, int priority)
{
    checkAccessible();
    DetailedInsert out;
    if (overflowSlice_) {
        // Victim CA-RAM slice: copies that miss their home bucket go
        // to the overflow slice, which is searched in parallel.
        const auto homes = slice_->homeRows(record.key);
        std::vector<InsertResult> placed;
        bool needs_overflow = false;
        for (uint64_t home : homes) {
            InsertResult r = slice_->insertAt(home, record);
            if (r.ok)
                placed.push_back(r);
            else
                needs_overflow = true;
        }
        double overflow_cost = 0.0;
        if (needs_overflow) {
            const InsertSummary ov = overflowSlice_->insert(record);
            if (!ov.ok) {
                for (const InsertResult &r : placed)
                    slice_->removePlacement(r);
                return out;
            }
            out.tcamCopies = 1;
            // The overflow slice is probed in parallel with the main
            // access; only its own probe depth can exceed one access.
            overflow_cost = ov.maxDistance + 1.0;
        }
        out.ok = true;
        out.copies = static_cast<unsigned>(placed.size());
        out.meanAccessCost = std::max(1.0, overflow_cost);
        return out;
    }
    if (!overflow_) {
        const InsertSummary s = slice_->insert(record);
        out.ok = s.ok;
        out.copies = static_cast<unsigned>(s.placements.size());
        out.maxDistance = s.maxDistance;
        if (s.ok && out.copies > 0) {
            double cost = 0.0;
            for (const InsertResult &r : s.placements)
                cost += r.distance + 1.0;
            out.meanAccessCost = cost / out.copies;
        }
        return out;
    }

    // With a victim TCAM, place what fits bucket-locally and send the
    // rest to the overflow area (one TCAM entry covers all failed
    // duplicated copies).  Every lookup then costs exactly one access.
    const auto homes = slice_->homeRows(record.key);
    std::vector<InsertResult> placed;
    bool needs_overflow = false;
    for (uint64_t home : homes) {
        InsertResult r = slice_->insertAt(home, record);
        if (r.ok)
            placed.push_back(r);
        else
            needs_overflow = true;
    }
    if (needs_overflow) {
        if (!overflow_->insert(record.key, record.data, priority)) {
            // Overflow area exhausted: roll back and fail.
            for (const InsertResult &r : placed)
                slice_->removePlacement(r);
            return out;
        }
    }
    out.ok = true;
    out.copies = static_cast<unsigned>(placed.size());
    out.tcamCopies = needs_overflow ? 1 : 0;
    out.meanAccessCost = 1.0;
    return out;
}

InsertBatchSummary
Database::insertBatch(std::span<const Record> records,
                      InsertOutcome *outcomes, const int *priorities)
{
    checkAccessible();
    if (!overflow_ && !overflowSlice_)
        return slice_->insertBatch(records, outcomes);
    // Parallel overflow area: spills route through the overflow
    // structures record-at-a-time; the summary still reports
    // accept/fail so callers need not special-case the policy.
    InsertBatchSummary sum;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const DetailedInsert d =
            insertDetailed(records[i], priorities ? priorities[i] : 0);
        if (d.ok)
            ++sum.accepted;
        else
            ++sum.failed;
        ++sum.fallbackRecords;
        if (outcomes) {
            outcomes[i].ok = d.ok;
            outcomes[i].copies = d.copies + d.tcamCopies;
            outcomes[i].maxDistance = d.maxDistance;
        }
    }
    return sum;
}

bool
Database::canRebuild() const
{
    if (cfg.overflow == OverflowPolicy::ParallelTcam)
        return false;
    if (cfg.overflow == OverflowPolicy::ParallelSlice)
        return !slice_->config().ternary;
    return true;
}

namespace {

/** Strict weak order over records: raw key words, then data -- only
 *  used to group identical stored copies during a rebuild. */
bool
recordBefore(const Record &a, const Record &b)
{
    const auto av = a.key.valueWords(), bv = b.key.valueWords();
    for (std::size_t w = 0; w < av.size(); ++w) {
        if (av[w] != bv[w])
            return av[w] < bv[w];
    }
    const auto ac = a.key.careWords(), bc = b.key.careWords();
    for (std::size_t w = 0; w < ac.size(); ++w) {
        if (ac[w] != bc[w])
            return ac[w] < bc[w];
    }
    return a.data < b.data;
}

} // namespace

Database::RebuildSummary
Database::rebuild()
{
    checkAccessible();
    RebuildSummary out;
    if (!canRebuild())
        return out;

    // Collect every stored copy from the raw rows (rollback residue has
    // its valid bit cleared and is skipped here, so a rebuild also
    // scrubs it).
    std::vector<Record> copies;
    auto collect = [&copies](CaRamSlice &s) {
        for (uint64_t row = 0; row < s.config().rows(); ++row) {
            BucketView b = s.bucket(row);
            for (unsigned i = 0; i < b.slots(); ++i) {
                if (b.slotValid(i))
                    copies.push_back(Record{b.slotKey(i), b.slotData(i)});
            }
        }
    };
    collect(*slice_);
    if (overflowSlice_)
        collect(*overflowSlice_);
    std::sort(copies.begin(), copies.end(), recordBefore);

    // Reduce stored multiplicity to logical records: a record stored m
    // times with c candidate homes was inserted m / c times.
    std::vector<Record> todo;
    todo.reserve(copies.size());
    for (std::size_t i = 0; i < copies.size();) {
        std::size_t j = i + 1;
        while (j < copies.size() && !recordBefore(copies[i], copies[j]))
            ++j;
        const auto m = static_cast<uint64_t>(j - i);
        const uint64_t per = overflowSlice_
            ? 1
            : static_cast<uint64_t>(
                  slice_->homeRows(copies[i].key).size());
        if (m % per != 0) {
            // Only possible when the array was mutated behind the CAM
            // interface (RAM-mode writes); keep every record.
            warn(strprintf("rebuild of '%s': record multiplicity %llu "
                           "is not a multiple of its %llu candidate "
                           "homes",
                           cfg.name.c_str(), (unsigned long long)m,
                           (unsigned long long)per));
        }
        const uint64_t k = (m + per - 1) / per;
        for (uint64_t t = 0; t < k; ++t)
            todo.push_back(copies[i]);
        i = j;
    }

    clear();
    out.records = todo.size();
    out.ingest = insertBatch(todo);
    out.failedRecords = out.ingest.failed;
    out.ok = out.ingest.failed == 0;
    return out;
}

void
Database::mergeOverflow(const Key &search_key, SearchResult &result)
{
    if (overflowSlice_) {
        // Overflow slice searched in parallel: latency is the larger
        // of the two paths.
        SearchResult ov = overflowSlice_->search(search_key);
        result.bucketsAccessed =
            std::max(result.bucketsAccessed, ov.bucketsAccessed);
        if (ov.hit) {
            const bool take_overflow =
                !result.hit ||
                (slice_->config().lpm &&
                 ov.key.carePopcount() > result.key.carePopcount());
            if (take_overflow) {
                const unsigned accesses = result.bucketsAccessed;
                result = ov;
                result.bucketsAccessed = accesses;
            }
        }
        return;
    }
    if (!overflow_)
        return;

    // The victim TCAM is searched simultaneously; it costs no extra
    // memory access.
    const cam::CamSearchResult ov = overflow_->search(search_key);
    if (!ov.hit)
        return;
    const bool take_overflow =
        !result.hit ||
        (slice_->config().lpm &&
         ov.key.carePopcount() > result.key.carePopcount());
    if (take_overflow) {
        result.hit = true;
        result.multipleMatch = ov.multipleMatch;
        result.row = 0;
        result.slot = static_cast<unsigned>(ov.index);
        result.data = ov.data;
        result.key = ov.key;
    }
}

SearchResult
Database::search(const Key &search_key)
{
    checkAccessible();
    SearchResult result = slice_->search(search_key);
    mergeOverflow(search_key, result);
    return result;
}

unsigned
Database::erase(const Key &key)
{
    checkAccessible();
    // One logical record: one copy per candidate home.  A home whose
    // copy did not fit went to the overflow area as one entry covering
    // every such home (insertDetailed()), so the overflow area gives up
    // one record only when the main slice came up short -- for a binary
    // key, exactly the copy search() answers with.
    const unsigned main_removed = slice_->erase(key);
    if (!hasOverflowArea() || main_removed == slice_->homeRows(key).size())
        return main_removed;
    unsigned removed = main_removed;
    if (overflow_ && overflow_->erase(key))
        ++removed;
    if (overflowSlice_)
        removed += overflowSlice_->erase(key);
    return removed;
}

uint64_t
Database::size() const
{
    return slice_->size() + overflowEntries();
}

void
Database::clear()
{
    slice_->clear();
    if (overflow_)
        overflow_->clear();
    if (overflowSlice_)
        overflowSlice_->clear();
}

double
Database::amal() const
{
    if (cfg.overflow == OverflowPolicy::ParallelTcam)
        return 1.0;
    if (cfg.overflow == OverflowPolicy::ParallelSlice) {
        // Main slice and overflow slice are searched in parallel, so a
        // lookup completes when the longer of the two access chains
        // does: AMAL is the max of the chains, never less than one.
        return std::max({1.0, slice_->amalUniform(),
                         overflowSlice_->amalUniform()});
    }
    return std::max(1.0, slice_->amalUniform());
}

uint64_t
Database::nominalStorageBits() const
{
    const SliceConfig eff = cfg.effectiveConfig();
    uint64_t bits = eff.rows() * eff.nominalRowBits();
    if (overflowSlice_) {
        const SliceConfig &ov = overflowSlice_->config();
        bits += ov.rows() * ov.nominalRowBits();
    }
    return bits;
}

double
Database::areaUm2() const
{
    double area = tech::caRamArrayUm2(nominalStorageBits());
    if (overflow_)
        area += overflow_->areaUm2();
    return area;
}

double
Database::searchEnergyNj() const
{
    const SliceConfig eff = cfg.effectiveConfig();
    const auto access = tech::caRamAccessEnergyNj(
        eff.nominalRowBits(), eff.nominalRowBits(), eff.slotsPerBucket,
        eff.rows());
    double energy = access.totalNj() * amal();
    if (overflow_)
        energy += overflow_->searchEnergyNj();
    if (overflowSlice_) {
        const SliceConfig &ov = overflowSlice_->config();
        energy += tech::caRamAccessEnergyNj(ov.nominalRowBits(),
                                            ov.nominalRowBits(),
                                            ov.slotsPerBucket, ov.rows())
                      .totalNj();
    }
    return energy;
}

double
Database::powerW(double searches_per_sec) const
{
    const SliceConfig eff = cfg.effectiveConfig();
    const auto access = tech::caRamAccessEnergyNj(
        eff.nominalRowBits(), eff.nominalRowBits(), eff.slotsPerBucket,
        eff.rows());
    const double mbits = static_cast<double>(nominalStorageBits()) / 1e6;
    if (powerState() == PowerState::Retention) {
        // Data-retention mode: only the retention refresh remains
        // (Morishita's power-down data retention mode).
        return tech::edramStaticMwPerMbit * 1e-3 * mbits *
               tech::edramRetentionFactor;
    }
    double power = tech::caRamPowerW(access, searches_per_sec, amal(),
                                     mbits, cfg.physicalSlices);
    if (overflow_) {
        power += overflow_->searchEnergyNj() * 1e-9 * searches_per_sec;
    }
    return power;
}

double
Database::searchBandwidthMsps(const mem::MemTiming &timing) const
{
    // Paper section 3.4: B_CA-RAM = N_slice / n_mem * f_clk, counting
    // only independently accessible slices.
    const double banks = layout().independentBanks();
    return banks / timing.minCycleGap * timing.clockMhz / amal();
}

} // namespace caram::core
