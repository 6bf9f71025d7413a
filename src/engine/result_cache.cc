#include "engine/result_cache.h"

#include <algorithm>
#include <bit>
#include <span>

#include "common/logging.h"

namespace caram::engine {

namespace {

/**
 * Payload word layout.  The search key is stored in full (value, care,
 * width) and compared exactly on probe -- there is no fingerprint
 * shortcut whose collision could alias two keys.  The result side
 * stores only the response-visible fields: the engine's cached
 * response must be bit-identical to the uncached one, and responses
 * carry hit/data/key/bucketsAccessed, nothing else.
 */
enum : unsigned {
    kSearchValue0 = 0, // .. kSearchValue0 + Key::kWords - 1
    kSearchCare0 = kSearchValue0 + Key::kWords,
    kSearchMeta = kSearchCare0 + Key::kWords, // width | port << 32
    kMatchValue0 = kSearchMeta + 1,
    kMatchCare0 = kMatchValue0 + Key::kWords,
    kMatchMeta = kMatchCare0 + Key::kWords, // width | hit << 32
    kData = kMatchMeta + 1,
    kBuckets = kData + 1,
    kRegionMask = kBuckets + 1,
    kStamp = kRegionMask + 1,
    kWordCount = kStamp + 1,
};
static_assert(kWordCount == 22, "payload layout drifted from header");

/** SplitMix64-style finalizer over the key words: the set index must
 *  depend on every value/care bit or wildcard families would pile into
 *  one set. */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
hashKey(const Key &key)
{
    uint64_t h = 0x9e3779b97f4a7c15ull ^ key.bits();
    for (const uint64_t w : key.valueWords())
        h = mix64(h ^ w);
    for (const uint64_t w : key.careWords())
        h = mix64(h ^ w);
    return h;
}

/** Relaxed word store/load; the entry seqlock (with its fences) is
 *  what orders payload access, exactly like MemoryArray's row words
 *  under CaRamSlice's row seqlocks. */
void
storeWord(uint64_t &word, uint64_t v)
{
    std::atomic_ref<uint64_t>(word).store(v, std::memory_order_relaxed);
}

uint64_t
loadWord(uint64_t &word)
{
    return std::atomic_ref<uint64_t>(word).load(std::memory_order_relaxed);
}

} // namespace

ResultCache::ResultCache(std::size_t entries, unsigned ways,
                         unsigned nports)
{
    if (nports == 0)
        fatal("result cache needs at least one port");
    ways_ = std::clamp(ways, 1u, kMaxWays);
    nports_ = nports;
    // Each port owns a private power-of-two run of sets: fills from one
    // port can never evict another port's entries, so per-port hit
    // sequences (and the engine's modeled accounting) stay
    // deterministic under any thread schedule.
    const std::size_t per_port =
        std::max<std::size_t>(1, entries / (std::size_t{ways_} * nports_));
    setsPerPort_ = std::bit_floor(per_port);
    const std::size_t total_sets = setsPerPort_ * nports_;
    entries_ = std::make_unique<Entry[]>(total_sets * ways_);
    generations_ = std::make_unique<PortGeneration[]>(nports_);
    regionGens_ = std::make_unique<RegionGenerations[]>(nports_);
    cursors_ = std::make_unique<std::atomic<uint32_t>[]>(total_sets);
}

ResultCache::Entry *
ResultCache::setFor(unsigned port, const Key &key)
{
    const std::size_t set = hashKey(key) & (setsPerPort_ - 1);
    const std::size_t index = std::size_t{port} * setsPerPort_ + set;
    return entries_.get() + index * ways_;
}

uint64_t
ResultCache::generation(unsigned port) const
{
    if (port >= nports_)
        fatal("result cache generation for unknown port");
    return generations_[port].value.load(std::memory_order_acquire);
}

uint64_t
ResultCache::captureStamp(unsigned port, uint64_t regionMask) const
{
    if (port >= nports_)
        fatal("result cache stamp capture for unknown port");
    uint64_t stamp =
        generations_[port].value.load(std::memory_order_acquire);
    const std::atomic<uint64_t> *regions = regionGens_[port].value;
    for (uint64_t m = regionMask; m != 0; m &= m - 1) {
        stamp += regions[std::countr_zero(m)].load(
            std::memory_order_acquire);
    }
    return stamp;
}

void
ResultCache::invalidate(unsigned port)
{
    if (port >= nports_)
        fatal("result cache invalidation for unknown port");
    // Release: the bump is published before the caller starts mutating
    // the table, so a thread that still reads the old generation is
    // guaranteed to also still see the old (valid) table.  (The
    // engine's writer lane bumps *after* mutating instead; there the
    // per-port busy-flag hand-off serializes the port's requests, so
    // no probe of that port can race the mutation at all.)
    generations_[port].value.fetch_add(1, std::memory_order_release);
    wholePortInvalidations_.fetch_add(1, std::memory_order_relaxed);
}

void
ResultCache::invalidateRegions(unsigned port, uint64_t regionMask)
{
    if (port >= nports_)
        fatal("result cache region invalidation for unknown port");
    if (regionMask == ~uint64_t{0}) {
        // Full coverage: one whole-port bump beats 64 region bumps and
        // invalidates mask-0 (legacy whole-port) entries too.
        generations_[port].value.fetch_add(1, std::memory_order_release);
        wholePortInvalidations_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (regionMask != 0)
        regionInvalidations_.fetch_add(1, std::memory_order_relaxed);
    std::atomic<uint64_t> *regions = regionGens_[port].value;
    for (uint64_t m = regionMask; m != 0; m &= m - 1) {
        regions[std::countr_zero(m)].fetch_add(
            1, std::memory_order_release);
    }
}

bool
ResultCache::probe(unsigned port, const Key &key, core::SearchResult &out)
{
    if (port >= nports_)
        fatal("result cache probe for unknown port");
    Entry *set = setFor(port, key);
    const std::span<const uint64_t> value = key.valueWords();
    const std::span<const uint64_t> care = key.careWords();
    const uint64_t want_meta =
        uint64_t{key.bits()} | (uint64_t{port} << 32);

    for (unsigned way = 0; way < ways_; ++way) {
        Entry &e = set[way];
        // Seqlock read: sequence, relaxed word copy, acquire fence,
        // sequence again.  An odd or changed sequence means a fill is
        // (or was) in flight -- treat as a miss, never retry (the
        // caller's slice search is the fallback, so the read side is
        // wait-free).
        const uint64_t s1 = e.seq.load(std::memory_order_acquire);
        if (s1 & 1)
            continue;
        uint64_t words[kPayloadWords];
        for (unsigned w = 0; w < kPayloadWords; ++w)
            words[w] = loadWord(e.words[w]);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (e.seq.load(std::memory_order_relaxed) != s1)
            continue;

        // Exact key match: width, port, every value and care word.
        // Equal widths span equal word counts, and fills store zeros
        // past the span, so the span's words decide.
        if (words[kSearchMeta] != want_meta)
            continue;
        bool match = true;
        for (std::size_t w = 0; w < value.size(); ++w) {
            if (words[kSearchValue0 + w] != value[w] ||
                words[kSearchCare0 + w] != care[w]) {
                match = false;
                break;
            }
        }
        if (!match)
            continue;

        // Generation check: recompute the stamp sum over the entry's
        // stored region mask.  Every counter is monotonically
        // non-decreasing, so equality holds iff no covered counter --
        // whole-port or any covered region -- was bumped since the
        // fill's pre-search capture; any such bump makes the entry
        // unservable.
        if (words[kStamp] != captureStamp(port, words[kRegionMask]))
            return false;

        out = core::SearchResult{};
        out.hit = (words[kMatchMeta] >> 32) != 0;
        out.data = words[kData];
        out.bucketsAccessed = static_cast<unsigned>(words[kBuckets]);
        out.key = Key::fromWords(
            std::span<const uint64_t>(words + kMatchValue0, Key::kWords),
            std::span<const uint64_t>(words + kMatchCare0, Key::kWords),
            static_cast<unsigned>(words[kMatchMeta] & 0xffffffffu));
        return true;
    }
    return false;
}

void
ResultCache::fill(unsigned port, const Key &key,
                  const core::SearchResult &result, uint64_t stamp,
                  uint64_t regionMask)
{
    if (port >= nports_)
        fatal("result cache fill for unknown port");
    Entry *set = setFor(port, key);
    const std::span<const uint64_t> value = key.valueWords();
    const std::span<const uint64_t> care = key.careWords();
    const uint64_t want_meta =
        uint64_t{key.bits()} | (uint64_t{port} << 32);

    // Victim selection (advisory only -- relaxed reads are fine):
    // refresh the key's own entry if present, else take a way whose
    // stamp no longer matches the recomputed sum over its own stored
    // mask (it can never be served again), else round-robin.
    unsigned victim = kMaxWays;
    unsigned stale = kMaxWays;
    for (unsigned way = 0; way < ways_; ++way) {
        Entry &e = set[way];
        if (loadWord(e.words[kSearchMeta]) == want_meta) {
            bool match = true;
            for (std::size_t w = 0; w < value.size(); ++w) {
                if (loadWord(e.words[kSearchValue0 + w]) != value[w] ||
                    loadWord(e.words[kSearchCare0 + w]) != care[w]) {
                    match = false;
                    break;
                }
            }
            if (match) {
                victim = way;
                break;
            }
        }
        if (stale == kMaxWays &&
            loadWord(e.words[kStamp]) !=
                captureStamp(port, loadWord(e.words[kRegionMask])))
            stale = way;
    }
    if (victim == kMaxWays)
        victim = stale;
    if (victim == kMaxWays) {
        const std::size_t set_index =
            static_cast<std::size_t>(set - entries_.get()) / ways_;
        victim = cursors_[set_index].fetch_add(
                     1, std::memory_order_relaxed) %
                 ways_;
    }

    Entry &e = set[victim];
    // Writer entry: CAS even -> odd claims the entry.  Losing the race
    // against another thread's concurrent fill just skips this one:
    // best-effort, lock-free, and the loser's result is re-derivable
    // from the table anyway.
    uint64_t s = e.seq.load(std::memory_order_relaxed);
    if ((s & 1) ||
        !e.seq.compare_exchange_strong(s, s + 1,
                                       std::memory_order_relaxed))
        return;
    std::atomic_thread_fence(std::memory_order_release);

    // Each key's words come from its span (wordsFor(width) words);
    // the slots past it store zeros.
    for (unsigned w = 0; w < Key::kWords; ++w) {
        const bool in = w < value.size();
        storeWord(e.words[kSearchValue0 + w], in ? value[w] : 0);
        storeWord(e.words[kSearchCare0 + w], in ? care[w] : 0);
    }
    storeWord(e.words[kSearchMeta], want_meta);
    const std::span<const uint64_t> mvalue = result.key.valueWords();
    const std::span<const uint64_t> mcare = result.key.careWords();
    for (unsigned w = 0; w < Key::kWords; ++w) {
        const bool in = w < mvalue.size();
        storeWord(e.words[kMatchValue0 + w], in ? mvalue[w] : 0);
        storeWord(e.words[kMatchCare0 + w], in ? mcare[w] : 0);
    }
    storeWord(e.words[kMatchMeta],
              uint64_t{result.key.bits()} |
                  (uint64_t{result.hit ? 1u : 0u} << 32));
    storeWord(e.words[kData], result.data);
    storeWord(e.words[kBuckets], result.bucketsAccessed);
    storeWord(e.words[kRegionMask], regionMask);
    storeWord(e.words[kStamp], stamp);

    e.seq.store(s + 2, std::memory_order_release);
}

} // namespace caram::engine
