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
 * per-key packed path under each kernel (vector lanes hold slots).
 * Every kernel's result stream is checksummed against the scalar one.
 *
 * Emits BENCH_match_path.json and BENCH_simd_batch.json.  Usage:
 *
 *   micro_match_path [lookups] [--json PATH]
 *                    [--baseline PATH] [--max-regression X]
 *                    [--kernel=scalar|avx2|avx512]
 *                    [--simd-json PATH] [--simd-baseline PATH]
 *
 * With --baseline / --simd-baseline, exits nonzero when any variant's
 * ns/lookup (respectively any kernel's per-key ns/key)
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

#include <optional>

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
// Kernel sweep: the per-key packed path under each comparator kernel,
// on the 144-bit ternary workload.

struct KernelMeasurement
{
    simd::MatchKernel kernel = simd::MatchKernel::Scalar;
    double perKeyNs = 0.0; ///< packed per-key bucket search, ns/key
    uint64_t checksum = 0; ///< per-key bucket stream checksum
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

    // Runs of kKeysPerRow packed keys, each run evaluated against one
    // random row.
    constexpr unsigned kKeysPerRow = 8;
    const std::size_t runs = std::max<std::size_t>(1, lookups / kKeysPerRow);
    std::vector<MatchProcessor::PackedKey> packed(runs * kKeysPerRow);
    std::vector<uint64_t> rows(runs);
    Rng rng(0x5eed);
    for (std::size_t g = 0; g < runs; ++g) {
        rows[g] = rng.below(cfg.rows());
        for (unsigned k = 0; k < kKeysPerRow; ++k)
            mp.pack(w.stream[rng.below(w.stream.size())],
                    packed[g * kKeysPerRow + k]);
    }

    constexpr int kRepeats = 3;
    km.perKeyNs = 1e18;
    for (int rep = 0; rep < kRepeats; ++rep) {
        uint64_t psum = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t g = 0; g < runs; ++g) {
            BucketView b = slice.bucket(rows[g]);
            for (unsigned k = 0; k < kKeysPerRow; ++k)
                psum = bucketChecksum(
                    psum,
                    mp.searchBucketPacked(b, packed[g * kKeysPerRow + k]));
        }
        km.perKeyNs = std::min(km.perKeyNs,
                               bench::secondsSince(t0) * 1e9 /
                                   (runs * kKeysPerRow));
        km.checksum = psum;
    }
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
    // Kernel sweep: the per-key packed path under each kernel.

    std::vector<simd::MatchKernel> kernels_to_run;
    for (simd::MatchKernel k :
         {simd::MatchKernel::Scalar, simd::MatchKernel::Avx2,
          simd::MatchKernel::Avx512}) {
        if (forced_kernel && *forced_kernel != k)
            continue;
        if (simd::kernelAvailable(k))
            kernels_to_run.push_back(k);
    }

    std::cout << "\n=== Kernel sweep: per-key packed match "
                 "(ternary-144) ===\n\n";

    TextTable kt({"kernel", "per-key ns", "vs scalar"});
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
       << ",\n  \"kernels\": [\n";
    bool sj_first = true;
    for (const KernelMeasurement &km : kms) {
        kt.addRow({simd::kernelName(km.kernel), fixed(km.perKeyNs, 1),
                   scalar_km ? fixed(scalar_km->perKeyNs / km.perKeyNs,
                                     2) + "x"
                             : "-"});
        if (!sj_first)
            sj << ",\n";
        sj_first = false;
        sj << "    {\n"
           << "      \"name\": \"" << simd::kernelName(km.kernel)
           << "\",\n"
           << "      \"perkey_ns_per_key\": " << fixed(km.perKeyNs, 2)
           << "\n    }";
    }
    sj << "\n  ]\n}\n";
    kt.print(std::cout);
    std::cout << "\nresult streams: every kernel's checksum identical "
                 "to the scalar kernel's\n";

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
            const std::string field = "perkey_ns_per_key";
            const double ref = bench::baselineField(base, name, field);
            const double cur = bench::baselineField(current, name, field);
            if (ref <= 0.0) {
                std::cout << "FAIL: no baseline entry for " << name << " "
                          << field << "\n";
                rc = 1;
                continue;
            }
            const double ratio = cur / ref;
            const bool ok = ratio <= max_regression;
            std::cout << (ok ? "ok  " : "FAIL") << "  " << name
                      << " perkey: " << fixed(cur, 1)
                      << " ns vs baseline " << fixed(ref, 1) << " ns ("
                      << fixed(ratio, 2) << "x)\n";
            if (!ok)
                rc = 1;
        }
    }
    return rc;
}
