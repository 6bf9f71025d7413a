/**
 * @file
 * Microbenchmark of the word-parallel match path against the legacy
 * decode path, on the host (ns/lookup), for binary, ternary and LPM
 * slices including wide (>64-bit) keys.
 *
 * The "legacy" searcher embedded here is a faithful replica of the
 * match path as it existed before the word-parallel rewrite: a fresh
 * home-row vector per lookup, a std::vector<bool> match vector per
 * bucket, per-slot comparison through Key reconstruction, and stored
 * keys decoded bit by bit with Key::setBitAt.  (The reference path that
 * remains in MatchProcessor is *not* that code: its slot decode was
 * also upgraded to word copies, so timing it would understate the
 * improvement.)  Both paths run the same lookup stream and their
 * results are checksummed and compared -- a mismatch fails the bench.
 *
 * Host ns/lookup is a software-throughput number; it says nothing about
 * the modeled hardware latency (see DESIGN.md on modeled cycles vs host
 * throughput).  It is the right metric here because the match path runs
 * on the host for every simulated lookup, so it bounds simulation and
 * software-CA-RAM throughput.
 *
 * The ipv4-lpm-192 variant has the shape of the IPv4 design-E table
 * (32-bit ternary LPM, 16-bit data, 3 x 64 = 192 slots per row): wide,
 * sparsely filled rows where the single-key kernel is most of a lookup.
 *
 * A second section sweeps the comparator *kernels* (scalar / AVX2 /
 * AVX-512, core/match_kernels.h) on the 144-bit ternary workload: the
 * per-key packed path under each kernel (vector lanes hold slots), the
 * multi-key group path (kMaxGroupKeys keys sharing each row fetch;
 * vector lanes hold keys), and the batched slice search over bursty
 * traffic (see EXPERIMENTS.md).  All kernel/group/batch result streams
 * are checksummed against the scalar per-key stream.
 *
 * Emits BENCH_match_path.json and BENCH_simd_batch.json.  Usage:
 *
 *   micro_match_path [lookups] [--json PATH]
 *                    [--baseline PATH] [--max-regression X]
 *                    [--kernel=scalar|avx2|avx512]
 *                    [--simd-json PATH] [--simd-baseline PATH]
 *
 * With --baseline / --simd-baseline, exits nonzero when any variant's
 * ns/lookup (respectively any kernel's per-key or group ns/key)
 * exceeds the baseline's by more than X (default 2.0) -- the CI smoke
 * gate (scripts/ci_bench_smoke.sh).  --kernel restricts the kernel
 * sweep (and pins the main section's slices) to one kernel.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <array>
#include <optional>
#include <span>

#include "cam/priority_encoder.h"
#include "common/bitops.h"
#include "common/cpuid.h"
#include "bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/strings.h"
#include "core/slice.h"
#include "hash/bit_select.h"

using namespace caram;
using namespace caram::core;

namespace {

// ---------------------------------------------------------------------
// Legacy path replica (pre-word-parallel), built on public APIs.

/** Stored-key decode exactly as the old BucketView::slotKey: bit by bit
 *  through Key::setBitAt. */
Key
legacySlotKey(const CaRamSlice &slice, uint64_t row, unsigned i)
{
    const SliceConfig &cfg = slice.config();
    const uint64_t base = uint64_t{i} * cfg.slotBits();
    const unsigned kb = cfg.logicalKeyBits;
    Key key(kb);
    for (unsigned lo = 0; lo < kb; lo += 64) {
        const unsigned len = std::min(64u, kb - lo);
        const uint64_t v = slice.array().readBits(row, base + lo, len);
        uint64_t c = maskBits(len);
        if (cfg.ternary)
            c = slice.array().readBits(row, base + kb + lo, len);
        for (unsigned b = 0; b < len; ++b) {
            const unsigned j = lo + b;
            key.setBitAt(kb - 1 - j, (v >> b) & 1u, (c >> b) & 1u);
        }
    }
    return key;
}

/** The old MatchProcessor::matchVector: per-slot Key comparison into a
 *  freshly allocated vector<bool>. */
std::vector<bool>
legacyMatchVector(CaRamSlice &slice, uint64_t row, const Key &search)
{
    BucketView b = slice.bucket(row);
    std::vector<bool> mv(b.slots(), false);
    for (unsigned i = 0; i < b.slots(); ++i)
        mv[i] = b.slotValid(i) && b.slotMatchesKey(i, search);
    return mv;
}

SearchResult
legacySearch(CaRamSlice &slice, const Key &search)
{
    const SliceConfig &cfg = slice.config();
    SearchResult best;
    for (uint64_t home : slice.homeRows(search)) { // allocates, as before
        const unsigned reach = slice.bucket(home).reach();
        bool done = false;
        for (unsigned d = 0; d <= reach; ++d) {
            const uint64_t row = (home + d) % cfg.rows(); // Linear probe
            ++best.bucketsAccessed;
            const auto mv = legacyMatchVector(slice, row, search);
            if (!cfg.lpm) {
                const auto enc = cam::priorityEncode(mv);
                if (!enc.anyMatch)
                    continue;
                best.hit = true;
                best.multipleMatch = enc.multipleMatch;
                best.row = row;
                best.slot = static_cast<unsigned>(enc.index);
                best.data = slice.bucket(row).slotData(best.slot);
                best.key = legacySlotKey(slice, row, best.slot);
                done = true;
                break;
            }
            // Old LPM: decode every matching slot's key to rank by
            // specified-bit count.
            int slot = -1;
            unsigned pop = 0;
            unsigned matches = 0;
            for (unsigned i = 0; i < mv.size(); ++i) {
                if (!mv[i])
                    continue;
                ++matches;
                const unsigned p =
                    legacySlotKey(slice, row, i).carePopcount();
                if (slot < 0 || p > pop) {
                    slot = static_cast<int>(i);
                    pop = p;
                }
            }
            if (slot < 0)
                continue;
            if (!best.hit || pop > best.key.carePopcount()) {
                best.hit = true;
                best.multipleMatch = matches > 1;
                best.row = row;
                best.slot = static_cast<unsigned>(slot);
                best.data = slice.bucket(row).slotData(best.slot);
                best.key = legacySlotKey(slice, row, best.slot);
            }
        }
        if (done)
            break;
    }
    return best;
}

// ---------------------------------------------------------------------
// Workloads.

struct Variant
{
    std::string name;
    unsigned keyBits;
    bool ternary;
    bool lpm;
    unsigned slots = 16;     ///< slots per row
    unsigned indexBits = 10; ///< log2 rows
};

struct Workload
{
    std::unique_ptr<CaRamSlice> slice;
    std::vector<Key> stream;
};

Workload
buildWorkload(const Variant &v, std::size_t lookups)
{
    SliceConfig cfg;
    cfg.indexBits = v.indexBits;
    cfg.logicalKeyBits = v.keyBits;
    cfg.ternary = v.ternary;
    cfg.lpm = v.lpm;
    cfg.slotsPerBucket = v.slots;
    cfg.dataBits = 16;
    cfg.maxProbeDistance = 16;
    cfg.validate();
    std::vector<unsigned> taps;
    for (unsigned i = 0; i < cfg.indexBits; ++i)
        taps.push_back(i);
    Workload w;
    w.slice = std::make_unique<CaRamSlice>(
        cfg, std::make_unique<hash::BitSelectIndex>(v.keyBits,
                                                    std::move(taps)));
    Rng rng(0xca7a | (v.keyBits << 8) | (v.ternary ? 1 : 0) |
            (v.lpm ? 2 : 0));
    const unsigned bytes = (v.keyBits + 7) / 8;
    auto random_key = [&] {
        std::vector<unsigned char> buf(bytes);
        for (auto &x : buf)
            x = static_cast<unsigned char>(rng.below(256));
        if (v.lpm) {
            // Prefix lengths past the hash taps: no duplication, the
            // match path itself is what is being timed.
            const unsigned plen = static_cast<unsigned>(
                rng.inRange(cfg.indexBits + 6, v.keyBits));
            return Key::prefixFromBytes(buf, plen, v.keyBits);
        }
        Key k = Key::fromBytes(buf, v.keyBits);
        if (v.ternary) {
            // Sparse don't-cares outside the hash positions.
            for (unsigned p = cfg.indexBits; p < v.keyBits; ++p) {
                if (rng.chance(0.1))
                    k.setBitAt(p, false, false);
            }
        }
        return k;
    };
    std::vector<Key> loaded;
    for (int i = 0; i < 10000; ++i) { // ~61% load at 1024 x 16
        const Key k = random_key();
        if (w.slice->insert(Record{k, rng.below(1u << 16)}).ok)
            loaded.push_back(k);
    }
    w.stream.reserve(lookups);
    for (std::size_t i = 0; i < lookups; ++i) {
        if (rng.chance(0.6)) {
            Key k = loaded[rng.below(loaded.size())];
            if (v.lpm || v.ternary) {
                // Search keys are fully specified traffic that walks
                // under the stored entry.
                Key full(v.keyBits);
                for (unsigned p = 0; p < v.keyBits; ++p)
                    full.setBitAt(p, k.careBitAt(p) ? k.valueBitAt(p)
                                                    : rng.chance(0.5));
                k = full;
            }
            w.stream.push_back(std::move(k));
        } else {
            std::vector<unsigned char> buf(bytes);
            for (auto &x : buf)
                x = static_cast<unsigned char>(rng.below(256));
            w.stream.push_back(Key::fromBytes(buf, v.keyBits));
        }
    }
    return w;
}

uint64_t
resultChecksum(uint64_t acc, const SearchResult &r)
{
    acc = acc * 1099511628211ull + (r.hit ? 1 : 0);
    if (r.hit) {
        acc = acc * 1099511628211ull + r.row;
        acc = acc * 1099511628211ull + r.slot;
        acc = acc * 1099511628211ull + r.data;
        acc = acc * 1099511628211ull + (r.multipleMatch ? 1 : 0);
    }
    return acc * 1099511628211ull + r.bucketsAccessed;
}

struct Measurement
{
    double fastNs = 0.0;
    double legacyNs = 0.0;
    double hitRate = 0.0;
    double bucketsPerLookup = 0.0;
    std::size_t lookups = 0;
};

Measurement
measure(const Variant &v, std::size_t lookups)
{
    Workload w = buildWorkload(v, lookups);
    CaRamSlice &slice = *w.slice;
    Measurement m;
    m.lookups = lookups;

    // Warm-up pass sizes the per-slice scratch and faults the arrays in.
    uint64_t fast_sum = 0, hits = 0, buckets = 0;
    for (const Key &k : w.stream) {
        const SearchResult r = slice.search(k);
        hits += r.hit ? 1 : 0;
        buckets += r.bucketsAccessed;
    }
    m.hitRate = static_cast<double>(hits) / lookups;
    m.bucketsPerLookup = static_cast<double>(buckets) / lookups;

    // The two paths run interleaved in chunks, with each path's cost
    // taken as the minimum per-lookup time over its chunks x repeats:
    // on a shared host the minimum is the least-perturbed estimate, and
    // interleaving exposes both paths to the same noise environment.
    constexpr int kRepeats = 3;
    constexpr std::size_t kChunk = 10000;
    uint64_t legacy_sum = 0;
    m.fastNs = 1e18;
    m.legacyNs = 1e18;
    for (int rep = 0; rep < kRepeats; ++rep) {
        uint64_t fsum = 0, lsum = 0;
        for (std::size_t lo = 0; lo < lookups; lo += kChunk) {
            const std::size_t hi = std::min(lookups, lo + kChunk);
            auto t0 = std::chrono::steady_clock::now();
            for (std::size_t i = lo; i < hi; ++i)
                fsum = resultChecksum(fsum, slice.search(w.stream[i]));
            m.fastNs = std::min(m.fastNs,
                                bench::secondsSince(t0) * 1e9 / (hi - lo));
            t0 = std::chrono::steady_clock::now();
            for (std::size_t i = lo; i < hi; ++i)
                lsum = resultChecksum(lsum,
                                      legacySearch(slice, w.stream[i]));
            m.legacyNs = std::min(m.legacyNs,
                                  bench::secondsSince(t0) * 1e9 / (hi - lo));
        }
        fast_sum = fsum;
        legacy_sum = lsum;
    }

    if (fast_sum != legacy_sum)
        fatal(strprintf("%s: fast and legacy result streams differ "
                        "(checksum %llx vs %llx)",
                        v.name.c_str(),
                        (unsigned long long)fast_sum,
                        (unsigned long long)legacy_sum));
    return m;
}

// ---------------------------------------------------------------------
// Kernel sweep: per-key packed path, multi-key group path and batched
// slice search under each comparator kernel, on the 144-bit ternary
// workload.

struct KernelMeasurement
{
    simd::MatchKernel kernel = simd::MatchKernel::Scalar;
    double perKeyNs = 0.0;      ///< packed per-key bucket search, ns/key
    double groupNs = 0.0;       ///< multi-key group search, ns/key
    double batchSerialNs = 0.0; ///< slice.search() loop, ns/key
    double batchNs = 0.0;       ///< slice.searchBatch(), ns/key
    double fetchReduction = 0.0; ///< serial row accesses / batch fetches
    uint64_t checksum = 0;       ///< per-key bucket stream checksum
};

uint64_t
bucketChecksum(uint64_t acc, const BucketMatch &m)
{
    acc = acc * 1099511628211ull + (m.hit ? 1 : 0);
    if (m.hit) {
        acc = acc * 1099511628211ull + m.slot;
        acc = acc * 1099511628211ull + m.data;
        acc = acc * 1099511628211ull + (m.multipleMatch ? 1 : 0);
    }
    return acc;
}

KernelMeasurement
measureKernel(simd::MatchKernel kernel, std::size_t lookups)
{
    simd::setMatchKernelOverride(kernel);
    KernelMeasurement km;
    km.kernel = kernel;

    const Variant v{"ternary-144", 144, true, false};
    Workload w = buildWorkload(v, lookups);
    CaRamSlice &slice = *w.slice;
    const SliceConfig &cfg = slice.config();
    MatchProcessor mp(cfg);

    // Bucket-level streams: groups of kMaxGroupKeys packed keys, each
    // group evaluated against one random row -- per-key vs group path.
    constexpr unsigned G = kernels::kMaxGroupKeys;
    const std::size_t groups = std::max<std::size_t>(1, lookups / G);
    std::vector<MatchProcessor::PackedKey> packed(groups * G);
    std::vector<uint64_t> rows(groups);
    Rng rng(0x5eed);
    for (std::size_t g = 0; g < groups; ++g) {
        rows[g] = rng.below(cfg.rows());
        for (unsigned k = 0; k < G; ++k)
            mp.pack(w.stream[rng.below(w.stream.size())],
                    packed[g * G + k]);
    }

    constexpr int kRepeats = 3;
    uint64_t perkey_sum = 0, group_sum = 0;
    km.perKeyNs = 1e18;
    km.groupNs = 1e18;
    for (int rep = 0; rep < kRepeats; ++rep) {
        uint64_t psum = 0;
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t g = 0; g < groups; ++g) {
            BucketView b = slice.bucket(rows[g]);
            for (unsigned k = 0; k < G; ++k)
                psum = bucketChecksum(
                    psum, mp.searchBucketPacked(b, packed[g * G + k]));
        }
        km.perKeyNs = std::min(
            km.perKeyNs, bench::secondsSince(t0) * 1e9 / (groups * G));

        uint64_t gsum = 0;
        MatchProcessor::PackedKeyGroup group;
        std::array<const MatchProcessor::PackedKey *, G> ptrs;
        std::array<BucketMatch, G> out;
        t0 = std::chrono::steady_clock::now();
        for (std::size_t g = 0; g < groups; ++g) {
            BucketView b = slice.bucket(rows[g]);
            for (unsigned k = 0; k < G; ++k)
                ptrs[k] = &packed[g * G + k];
            mp.packGroup(ptrs.data(), G, group);
            mp.searchBucketKeys(b, group, (1u << G) - 1, out.data());
            for (unsigned k = 0; k < G; ++k)
                gsum = bucketChecksum(gsum, out[k]);
        }
        km.groupNs = std::min(km.groupNs,
                              bench::secondsSince(t0) * 1e9 / (groups * G));
        perkey_sum = psum;
        group_sum = gsum;
    }
    if (perkey_sum != group_sum)
        fatal(strprintf("%s: per-key and group result streams differ "
                        "(checksum %llx vs %llx)",
                        simd::kernelName(kernel),
                        (unsigned long long)perkey_sum,
                        (unsigned long long)group_sum));
    km.checksum = perkey_sum;

    // Slice-level batched search over bursty (Zipf + packet-train)
    // traffic: repeated keys land in the same chunk and share their
    // chain walks.  Train lengths 1..kMaxGroupKeys model back-to-back
    // same-flow packets, the traffic the batched pipeline targets; on
    // uniform single-packet traffic grouping rarely triggers and the
    // batch path only costs its bookkeeping.
    std::vector<Key> bursts;
    bursts.reserve(lookups);
    ZipfStream zipf(w.stream.size(), 1.1);
    while (bursts.size() < lookups) {
        const Key &k = w.stream[zipf.next(rng)];
        const std::size_t train = 1 + rng.below(G);
        for (std::size_t c = 0; c < train && bursts.size() < lookups;
             ++c)
            bursts.push_back(k);
    }
    std::vector<SearchResult> results(bursts.size());
    uint64_t serial_sum = 0, batch_sum = 0, serial_accesses = 0;
    uint64_t fetches = 0;
    km.batchSerialNs = 1e18;
    km.batchNs = 1e18;
    for (int rep = 0; rep < kRepeats; ++rep) {
        uint64_t ssum = 0, acc = 0;
        auto t0 = std::chrono::steady_clock::now();
        for (const Key &k : bursts) {
            const SearchResult r = slice.search(k);
            ssum = resultChecksum(ssum, r);
            acc += r.bucketsAccessed;
        }
        km.batchSerialNs = std::min(
            km.batchSerialNs, bench::secondsSince(t0) * 1e9 / bursts.size());

        uint64_t bsum = 0, f = 0;
        t0 = std::chrono::steady_clock::now();
        for (std::size_t lo = 0; lo < bursts.size();
             lo += CaRamSlice::kMaxBatch) {
            const std::size_t n = std::min<std::size_t>(
                CaRamSlice::kMaxBatch, bursts.size() - lo);
            f += slice.searchBatch(
                std::span<const Key>(bursts.data() + lo, n),
                results.data() + lo);
        }
        for (const SearchResult &r : results)
            bsum = resultChecksum(bsum, r);
        km.batchNs = std::min(km.batchNs,
                              bench::secondsSince(t0) * 1e9 / bursts.size());
        serial_sum = ssum;
        batch_sum = bsum;
        serial_accesses = acc;
        fetches = f;
    }
    if (serial_sum != batch_sum)
        fatal(strprintf("%s: serial and batched result streams differ "
                        "(checksum %llx vs %llx)",
                        simd::kernelName(kernel),
                        (unsigned long long)serial_sum,
                        (unsigned long long)batch_sum));
    km.fetchReduction =
        fetches ? static_cast<double>(serial_accesses) / fetches : 0.0;
    return km;
}

// ---------------------------------------------------------------------
// Baseline comparison (bench_common.h parses our own JSON format).

double
baselineFastNs(const std::string &json, const std::string &variant)
{
    return bench::baselineField(json, variant, "fast_ns_per_lookup");
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::size_t lookups = 200000;
    std::string json_path = "BENCH_match_path.json";
    std::string simd_json_path = "BENCH_simd_batch.json";
    std::string baseline_path;
    std::string simd_baseline_path;
    double max_regression = 2.0;
    std::optional<simd::MatchKernel> forced_kernel;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg == "--simd-json" && i + 1 < argc)
            simd_json_path = argv[++i];
        else if (arg == "--baseline" && i + 1 < argc)
            baseline_path = argv[++i];
        else if (arg == "--simd-baseline" && i + 1 < argc)
            simd_baseline_path = argv[++i];
        else if (arg == "--max-regression" && i + 1 < argc)
            max_regression = std::strtod(argv[++i], nullptr);
        else if (arg.rfind("--kernel=", 0) == 0) {
            const std::string name = arg.substr(9);
            forced_kernel = simd::parseKernelName(name);
            if (!forced_kernel) {
                std::cerr << "unknown --kernel '" << name
                          << "' (scalar|avx2|avx512)\n";
                return 2;
            }
            if (!simd::kernelAvailable(*forced_kernel)) {
                std::cerr << "kernel " << name
                          << " not available on this host/build\n";
                return 2;
            }
        } else
            lookups = std::strtoull(arg.c_str(), nullptr, 10);
    }
    if (forced_kernel)
        simd::setMatchKernelOverride(*forced_kernel);

    const std::vector<Variant> variants = {
        {"binary-64", 64, false, false},
        {"binary-144", 144, false, false},
        {"ternary-144", 144, true, false},
        {"lpm-144", 144, true, true},
        {"ipv4-lpm-192", 32, true, true, 192, 8},
    };

    std::cout << "=== Micro: word-parallel match path vs legacy decode "
                 "===\n\n";
    std::cout << "1024 buckets x 16 slots (~61% load; ipv4-lpm-192: 256 "
                 "x 192, ~20%), "
              << withCommas(lookups)
              << " lookups per variant (60% hit traffic); legacy = "
                 "pre-rewrite per-bit decode path\n\n";

    TextTable t({"variant", "fast ns/lookup", "legacy ns/lookup",
                 "speedup", "fast Msps", "hit rate", "buckets/lookup"});
    std::ostringstream json;
    json << "{\n  \"bench\": \"match_path\",\n  \"lookups\": " << lookups
         << ",\n  \"variants\": [\n";
    double ternary144_speedup = 0.0;
    bool first = true;
    for (const Variant &v : variants) {
        const Measurement m = measure(v, lookups);
        const double speedup = m.legacyNs / m.fastNs;
        if (v.name == "ternary-144")
            ternary144_speedup = speedup;
        t.addRow({v.name, fixed(m.fastNs, 1), fixed(m.legacyNs, 1),
                  fixed(speedup, 2) + "x", fixed(1e3 / m.fastNs, 2),
                  percent(m.hitRate), fixed(m.bucketsPerLookup, 3)});
        if (!first)
            json << ",\n";
        first = false;
        json << "    {\n"
             << "      \"name\": \"" << v.name << "\",\n"
             << "      \"key_bits\": " << v.keyBits << ",\n"
             << "      \"ternary\": " << (v.ternary ? "true" : "false")
             << ",\n"
             << "      \"lpm\": " << (v.lpm ? "true" : "false") << ",\n"
             << "      \"slots\": " << v.slots << ",\n"
             << "      \"fast_ns_per_lookup\": " << fixed(m.fastNs, 2)
             << ",\n"
             << "      \"legacy_ns_per_lookup\": " << fixed(m.legacyNs, 2)
             << ",\n"
             << "      \"speedup\": " << fixed(speedup, 2) << ",\n"
             << "      \"fast_msps\": " << fixed(1e3 / m.fastNs, 2)
             << ",\n"
             << "      \"hit_rate\": " << fixed(m.hitRate, 4) << ",\n"
             << "      \"buckets_per_lookup\": "
             << fixed(m.bucketsPerLookup, 3) << "\n    }";
    }
    json << "\n  ]\n}\n";
    t.print(std::cout);
    std::cout << "\nresult streams: fast and legacy checksums identical "
                 "on every variant\n";

    std::ofstream out(json_path);
    out << json.str();
    out.close();
    std::cout << "wrote " << json_path << "\n";

    int rc = 0;
    if (!baseline_path.empty()) {
        const std::string base = bench::readFile(baseline_path);
        if (base.empty()) {
            std::cout << "FAIL: cannot read baseline " << baseline_path
                      << "\n";
            return 1;
        }
        std::cout << "\n--- baseline check (max regression "
                  << fixed(max_regression, 2) << "x vs " << baseline_path
                  << ") ---\n";
        const std::string current = json.str();
        for (const Variant &v : variants) {
            const double ref = baselineFastNs(base, v.name);
            const double cur = baselineFastNs(current, v.name);
            if (ref <= 0.0) {
                std::cout << "FAIL: no baseline entry for " << v.name
                          << "\n";
                rc = 1;
                continue;
            }
            const double ratio = cur / ref;
            const bool ok = ratio <= max_regression;
            std::cout << (ok ? "ok  " : "FAIL") << "  " << v.name << ": "
                      << fixed(cur, 1) << " ns vs baseline "
                      << fixed(ref, 1) << " ns (" << fixed(ratio, 2)
                      << "x)\n";
            if (!ok)
                rc = 1;
        }
    }

    if (ternary144_speedup >= 5.0) {
        std::cout << "\nPASS: " << fixed(ternary144_speedup, 2)
                  << "x on the 144-bit ternary workload (>= 5x target)\n";
    } else {
        std::cout << "\nFAIL: 144-bit ternary speedup = "
                  << fixed(ternary144_speedup, 2) << "x (< 5x target)\n";
        rc = 1;
    }

    // -----------------------------------------------------------------
    // Kernel sweep: multi-key group match + batched slice search.

    std::vector<simd::MatchKernel> kernels_to_run;
    for (simd::MatchKernel k :
         {simd::MatchKernel::Scalar, simd::MatchKernel::Avx2,
          simd::MatchKernel::Avx512}) {
        if (forced_kernel && *forced_kernel != k)
            continue;
        if (simd::kernelAvailable(k))
            kernels_to_run.push_back(k);
    }

    std::cout << "\n=== Kernel sweep: multi-key group match + batched "
                 "slice search (ternary-144) ===\n\n";
    std::cout << "group = " << core::kernels::kMaxGroupKeys
              << " keys amortizing each row fetch; batch = bursty "
                 "Zipf traffic through searchBatch (chunk "
              << CaRamSlice::kMaxBatch << ")\n\n";

    TextTable kt({"kernel", "per-key ns", "group ns/key", "group gain",
                  "serial ns", "batch ns/key", "batch gain",
                  "fetch reduction"});
    std::vector<KernelMeasurement> kms;
    for (simd::MatchKernel k : kernels_to_run)
        kms.push_back(measureKernel(k, lookups));
    simd::setMatchKernelOverride(forced_kernel);

    const KernelMeasurement *scalar_km = nullptr;
    for (const KernelMeasurement &km : kms) {
        if (km.kernel == simd::MatchKernel::Scalar)
            scalar_km = &km;
        if (scalar_km && km.checksum != scalar_km->checksum) {
            std::cout << "FAIL: kernel " << km.kernel
                      << " result stream differs from scalar\n";
            rc = 1;
        }
    }

    std::ostringstream sj;
    sj << "{\n  \"bench\": \"simd_batch\",\n  \"lookups\": " << lookups
       << ",\n  \"group_keys\": " << core::kernels::kMaxGroupKeys
       << ",\n  \"kernels\": [\n";
    double avx2_group_speedup = 0.0;
    bool sj_first = true;
    for (const KernelMeasurement &km : kms) {
        // The acceptance ratio: this kernel's grouped path against the
        // *scalar per-key* path, the pre-batching serial cost.
        const double group_gain =
            scalar_km ? scalar_km->perKeyNs / km.groupNs
                      : km.perKeyNs / km.groupNs;
        const double batch_gain = km.batchSerialNs / km.batchNs;
        if (km.kernel == simd::MatchKernel::Avx2)
            avx2_group_speedup = group_gain;
        kt.addRow({simd::kernelName(km.kernel), fixed(km.perKeyNs, 1),
                   fixed(km.groupNs, 1), fixed(group_gain, 2) + "x",
                   fixed(km.batchSerialNs, 1), fixed(km.batchNs, 1),
                   fixed(batch_gain, 2) + "x",
                   fixed(km.fetchReduction, 2) + "x"});
        if (!sj_first)
            sj << ",\n";
        sj_first = false;
        sj << "    {\n"
           << "      \"name\": \"" << simd::kernelName(km.kernel)
           << "\",\n"
           << "      \"perkey_ns_per_key\": " << fixed(km.perKeyNs, 2)
           << ",\n"
           << "      \"group_ns_per_key\": " << fixed(km.groupNs, 2)
           << ",\n"
           << "      \"group_speedup_vs_scalar_perkey\": "
           << fixed(group_gain, 2) << ",\n"
           << "      \"batch_serial_ns_per_key\": "
           << fixed(km.batchSerialNs, 2) << ",\n"
           << "      \"batch_ns_per_key\": " << fixed(km.batchNs, 2)
           << ",\n"
           << "      \"batch_speedup\": " << fixed(batch_gain, 2)
           << ",\n"
           << "      \"fetch_reduction\": "
           << fixed(km.fetchReduction, 2) << "\n    }";
    }
    sj << "\n  ]\n}\n";
    kt.print(std::cout);
    std::cout << "\nresult streams: group and batch checksums identical "
                 "to the per-key path on every kernel\n";

    std::ofstream sout(simd_json_path);
    sout << sj.str();
    sout.close();
    std::cout << "wrote " << simd_json_path << "\n";

    if (!simd_baseline_path.empty()) {
        const std::string base = bench::readFile(simd_baseline_path);
        if (base.empty()) {
            std::cout << "FAIL: cannot read baseline "
                      << simd_baseline_path << "\n";
            return 1;
        }
        const std::string current = sj.str();
        std::cout << "\n--- simd baseline check (max regression "
                  << fixed(max_regression, 2) << "x vs "
                  << simd_baseline_path << ") ---\n";
        for (const KernelMeasurement &km : kms) {
            const std::string name = simd::kernelName(km.kernel);
            for (const char *path : {"perkey", "group"}) {
                const std::string field =
                    std::string(path) + "_ns_per_key";
                const double ref =
                    bench::baselineField(base, name, field);
                const double cur =
                    bench::baselineField(current, name, field);
                if (ref <= 0.0) {
                    std::cout << "FAIL: no baseline entry for " << name
                              << " " << field << "\n";
                    rc = 1;
                    continue;
                }
                const double ratio = cur / ref;
                const bool ok = ratio <= max_regression;
                std::cout << (ok ? "ok  " : "FAIL") << "  " << name
                          << " " << path << ": " << fixed(cur, 1)
                          << " ns vs baseline " << fixed(ref, 1)
                          << " ns (" << fixed(ratio, 2) << "x)\n";
                if (!ok)
                    rc = 1;
            }
        }
    }

    if (!scalar_km ||
        std::find(kernels_to_run.begin(), kernels_to_run.end(),
                  simd::MatchKernel::Avx2) == kernels_to_run.end()) {
        std::cout << "\nskip: the AVX2 group-match ratio needs both "
                     "the scalar and avx2 kernels in the sweep\n";
    } else {
        // A wall-clock ratio with no margin: it read 1.25-2.73x over
        // repeated runs of unchanged matcher code, so it is reported,
        // not gated.  The checksums above gate the group path.
        std::cout << "\ninfo: avx2 multi-key group match "
                  << fixed(avx2_group_speedup, 2)
                  << "x vs scalar per-key (2x target, wall clock)\n";
    }
    return rc;
}
