#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <unordered_map>

#include "common/random.h"
#include "hash/bit_select.h"
#include "hash/djb.h"
#include "hash/folding.h"
#include "ip/ip_caram.h"
#include "ip/lpm_reference.h"
#include "ip/synthetic_bgp.h"
#include "ip/traffic.h"
#include "speech/synthetic_trigrams.h"
#include "speech/trigram.h"
#include "util.h"

namespace perfbench {

using caram::Key;
using caram::Rng;
namespace core = caram::core;
namespace engine = caram::engine;

void
Outcome::fail(const std::string &what)
{
    if (failed < 5)
        std::fprintf(stderr, "perfbench: failed op: %s\n", what.c_str());
    ++failed;
}

namespace {

/**
 * Open-loop offered rates, requests per second: frozen here, so every
 * later commit is measured at the same load.  An open loop hands each
 * request to a sleeping worker on its own CPU, so it saturates far below
 * the closed loop's capacity (0.4 Mops on ipv4-lpm and trigram-zipf at
 * the commit that added the benchmark): one worker's open loop saturated
 * at about 100,000/s, and each rate is about half of that.  flow-churn
 * spreads its rate over two workers, but its writer-lane hand-offs made
 * its latency climb already at 100,000/s.
 */
constexpr double kIpv4OpenRate = 50e3;
constexpr double kTrigramOpenRate = 50e3;
constexpr double kFlowOpenRate = 50e3;

/** Insert/erase pairs a read-only workload's update probe cycles
 *  through. */
constexpr std::size_t kProbePairs = 4096;

/** Records handed to one bulkLoad call (a multiple of the slice's
 *  256-record ingest chunk, so chunking changes no placement). */
constexpr std::size_t kLoadChunk = 65536;

/** Time one bulkLoad of @p records into @p port. */
double
timedBulkLoad(engine::ParallelSearchEngine &eng, unsigned port,
              std::span<const core::Record> records,
              const int *priorities = nullptr)
{
    const int64_t t0 = nowNs();
    eng.bulkLoad(port, records, nullptr, priorities);
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** splitmix64 finalizer: a bijection on 64-bit values. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Insert/erase pairs of keys known to be absent: position 2j inserts
 *  key j (mod the key count), 2j+1 erases it again, so every insert
 *  places its key and every erase removes exactly one copy. */
class PairProbe : public OpSource
{
  public:
    PairProbe(std::vector<Key> keys, uint64_t data, int priority)
        : keys_(std::move(keys)), data_(data), priority_(priority)
    {
    }

    std::size_t size() const override { return keys_.size() * 2; }
    bool cyclic() const override { return true; }
    OpKind
    kind(std::size_t i) const override
    {
        return i % 2 == 0 ? OpKind::Insert : OpKind::Erase;
    }
    void
    fill(std::size_t i, core::PortRequest &req) const override
    {
        req.port = 0;
        req.op = i % 2 == 0 ? core::PortOp::Insert : core::PortOp::Erase;
        req.key = keys_[i / 2 % keys_.size()];
        req.data = data_;
        req.priority = priority_;
    }
    void
    check(std::size_t i, const core::PortResponse &resp,
          Outcome &out) const override
    {
        ++out.attempted;
        const bool insert = i % 2 == 0;
        if (!resp.ok || !resp.hit || (!insert && resp.data != 1)) {
            out.fail((insert ? "insert @" : "erase @") + std::to_string(i) +
                     " ok=" + std::to_string(resp.ok) + " hit=" +
                     std::to_string(resp.hit) + " data=" +
                     std::to_string(resp.data));
        }
    }

  private:
    std::vector<Key> keys_;
    uint64_t data_;
    int priority_;
};

// ---------------------------------------------------------------------
// ipv4-lpm: the paper's section 4.1 application on Table-2 design E.

constexpr std::size_t kIpStream = 1u << 20;

class Ipv4Stream : public OpSource
{
  public:
    std::vector<uint32_t> addr;
    /** Reference next hop (1..0xffff); 0 = no covering prefix. */
    std::vector<uint32_t> hop;

    std::size_t size() const override { return addr.size(); }
    bool cyclic() const override { return true; }
    OpKind kind(std::size_t) const override { return OpKind::Lookup; }
    void
    fill(std::size_t i, core::PortRequest &req) const override
    {
        req.port = 0;
        req.op = core::PortOp::Search;
        req.key = Key::fromUint(addr[i % addr.size()], 32);
        req.data = 0;
        req.priority = 0;
    }
    void
    check(std::size_t i, const core::PortResponse &resp,
          Outcome &out) const override
    {
        ++out.attempted;
        const uint32_t want = hop[i % hop.size()];
        const bool good = resp.ok && resp.hit == (want != 0) &&
                          (want == 0 || resp.data == want);
        if (!good) {
            out.fail("ipv4 lookup @" + std::to_string(i) + " want hop " +
                     std::to_string(want) + " got hit=" +
                     std::to_string(resp.hit) + " data=" +
                     std::to_string(resp.data));
        }
    }
};

class Ipv4Lpm : public Workload
{
  public:
    explicit Ipv4Lpm(uint64_t seed)
        : table_(caram::ip::generateSyntheticBgpTable({}))
    {
        // The mapper's Zipf-0.7 access weights drive both the build
        // order (length, then frequency) and the traffic.
        const caram::ip::IpCaRamMapper mapper(table_);
        const std::vector<double> &weights = mapper.accessWeights();
        const auto &prefixes = table_.prefixes();
        std::vector<std::size_t> order(prefixes.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (prefixes[a].length != prefixes[b].length)
                          return prefixes[a].length > prefixes[b].length;
                      return weights[a] > weights[b];
                  });
        for (std::size_t idx : order) {
            records_.push_back({prefixes[idx].toKey(), prefixes[idx].nextHop});
            priorities_.push_back(prefixes[idx].length);
        }

        caram::ip::LpmTrie trie;
        trie.insertAll(table_);
        caram::ip::IpTrafficGenerator traffic(table_, weights,
                                              mix64(seed ^ 0x1b4));
        stream_.addr.resize(kIpStream);
        stream_.hop.resize(kIpStream);
        for (std::size_t i = 0; i < kIpStream; ++i) {
            const uint32_t a = traffic.next();
            const auto best = trie.lookup(a);
            stream_.addr[i] = a;
            stream_.hop[i] = best ? best->nextHop : 0;
        }

        // Probe: host routes the table does not hold.
        Rng rng(mix64(seed ^ 0x9b0be));
        std::vector<Key> keys;
        while (keys.size() < kProbePairs) {
            caram::ip::Prefix p;
            p.address = static_cast<uint32_t>(rng.next64());
            p.length = 32;
            if (!table_.contains(p))
                keys.push_back(p.toKey());
        }
        probe_ = std::make_unique<PairProbe>(std::move(keys), 0x5a5a, 32);
    }

    std::string name() const override { return "ipv4-lpm"; }
    engine::EngineConfig
    engineConfig() const override
    {
        engine::EngineConfig cfg;
        cfg.workers = 1;
        return cfg;
    }
    void
    addDatabases(core::CaRamSubsystem &sys) const override
    {
        core::SliceConfig shape;
        shape.indexBits = 12;
        shape.logicalKeyBits = 32;
        shape.ternary = true;
        shape.slotsPerBucket = 64;
        shape.dataBits = 16;
        shape.probe = core::ProbePolicy::Linear;
        shape.lpm = true;
        // Unbounded linear probing over the row space, as the mapper
        // configures it (4096 rows in every arrangement).
        shape.maxProbeDistance = static_cast<unsigned>(shape.rows() - 1);
        core::DatabaseConfig cfg;
        cfg.name = "ip-E";
        cfg.sliceShape = shape;
        cfg.physicalSlices = 3;
        cfg.arrangement = core::Arrangement::Horizontal;
        cfg.indexFactory = [](const core::SliceConfig &eff)
            -> std::unique_ptr<caram::hash::IndexGenerator> {
            return std::make_unique<caram::hash::BitSelectIndex>(
                caram::hash::BitSelectIndex::lastBitsOfFirst16(
                    32, eff.indexBits));
        };
        sys.addDatabase(cfg);
    }
    double
    load(engine::ParallelSearchEngine &eng) const override
    {
        double seconds = 0.0;
        for (std::size_t off = 0; off < records_.size(); off += kLoadChunk) {
            const std::size_t n =
                std::min(kLoadChunk, records_.size() - off);
            seconds += timedBulkLoad(
                eng, 0, std::span(records_.data() + off, n),
                priorities_.data() + off);
        }
        return seconds;
    }
    uint64_t records() const override { return records_.size(); }
    bool mutating() const override { return false; }
    const OpSource &stream() const override { return stream_; }
    const OpSource *updateProbe() const override { return probe_.get(); }
    double openLoopRate() const override { return kIpv4OpenRate; }
    unsigned setupRepeats() const override { return 9; }

  private:
    caram::ip::RoutingTable table_;
    std::vector<core::Record> records_;
    std::vector<int> priorities_;
    Ipv4Stream stream_;
    std::unique_ptr<PairProbe> probe_;
};

// ---------------------------------------------------------------------
// trigram-zipf: the paper's section 4.2 application on Table-3 design B.

constexpr std::size_t kTrigramStream = 1u << 20;
constexpr std::size_t kTrigramCacheEntries = 65536;
constexpr double kTrigramPresent = 0.70;
constexpr double kTrigramSkew = 0.99;

/** A trigram text with one character replaced by an upper-case letter:
 *  the synthetic vocabulary is lower case, so the key cannot be stored. */
Key
absentTrigram(const caram::speech::SyntheticTrigramDb &db, Rng &rng)
{
    std::string text = db.text(rng.below(db.size()));
    text[rng.below(text.size())] = static_cast<char>('A' + rng.below(26));
    return Key::fromString(text, caram::speech::trigramKeyBits);
}

class TrigramStream : public OpSource
{
  public:
    /** 128-bit key words of each position. */
    std::vector<uint64_t> lo, hi;
    /** Reference: stored score when present. */
    std::vector<uint32_t> score;
    std::vector<uint8_t> present;

    std::size_t size() const override { return lo.size(); }
    bool cyclic() const override { return true; }
    OpKind kind(std::size_t) const override { return OpKind::Lookup; }
    void
    fill(std::size_t i, core::PortRequest &req) const override
    {
        i %= lo.size();
        const uint64_t value[2] = {lo[i], hi[i]};
        static constexpr uint64_t kCare[2] = {~uint64_t{0}, ~uint64_t{0}};
        req.port = 0;
        req.op = core::PortOp::Search;
        req.key = Key::fromWords(value, kCare, caram::speech::trigramKeyBits);
        req.data = 0;
        req.priority = 0;
    }
    void
    check(std::size_t i, const core::PortResponse &resp,
          Outcome &out) const override
    {
        ++out.attempted;
        const std::size_t j = i % lo.size();
        const bool good = resp.ok && resp.hit == (present[j] != 0) &&
                          (!present[j] || resp.data == score[j]);
        if (!good) {
            out.fail("trigram lookup @" + std::to_string(i) + " present=" +
                     std::to_string(present[j]) + " got hit=" +
                     std::to_string(resp.hit));
        }
    }
};

class TrigramZipf : public Workload
{
  public:
    explicit TrigramZipf(uint64_t seed) : db_(caram::speech::SyntheticTrigramConfig{})
    {
        const std::size_t n = db_.size();
        // Zipf ranks scattered over the entries by a fixed affine
        // permutation, so the hot trigrams land on unrelated rows.  Which
        // trigrams are hot is a property of the language model, like the
        // table itself; the seed draws the request sequence.
        const caram::ZipfSampler zipf(n, kTrigramSkew);
        uint64_t stride = (mix64(0x2a7e) % n) | 1;
        while (std::gcd(stride, static_cast<uint64_t>(n)) != 1)
            stride += 2;
        const uint64_t offset = mix64(0x0ff5e7) % n;

        Rng rng(mix64(seed ^ 0x7219));
        stream_.lo.resize(kTrigramStream);
        stream_.hi.resize(kTrigramStream);
        stream_.score.resize(kTrigramStream);
        stream_.present.resize(kTrigramStream);
        for (std::size_t i = 0; i < kTrigramStream; ++i) {
            Key key;
            if (rng.chance(kTrigramPresent)) {
                const std::size_t item = static_cast<std::size_t>(
                    (static_cast<unsigned __int128>(zipf(rng)) * stride +
                     offset) %
                    n);
                key = db_.key(item);
                stream_.score[i] = db_.score(item);
                stream_.present[i] = 1;
            } else {
                key = absentTrigram(db_, rng);
            }
            stream_.lo[i] = key.valueWords()[0];
            stream_.hi[i] = key.valueWords()[1];
        }

        // Probe keys whose home row lies in the first sixty-fourth of the
        // table: the probe runs between the read phases, and writes to
        // one corner of the table make the result cache drop only the
        // entries of that corner.
        const core::DatabaseConfig cfg = databaseConfig();
        const core::SliceConfig eff = cfg.effectiveConfig();
        const std::unique_ptr<caram::hash::IndexGenerator> index =
            cfg.indexFactory(eff);
        Rng probe_rng(mix64(seed ^ 0x9b0be));
        std::vector<Key> keys;
        while (keys.size() < kProbePairs) {
            const Key key = absentTrigram(db_, probe_rng);
            if (index->index(key.valueWords(), key.bits()) < eff.rows() / 64)
                keys.push_back(key);
        }
        probe_ = std::make_unique<PairProbe>(std::move(keys), 0x5a5a5a5a, 0);
    }

    std::string name() const override { return "trigram-zipf"; }
    engine::EngineConfig
    engineConfig() const override
    {
        engine::EngineConfig cfg;
        cfg.workers = 1;
        cfg.resultCacheEntries = kTrigramCacheEntries;
        return cfg;
    }
    void
    addDatabases(core::CaRamSubsystem &sys) const override
    {
        sys.addDatabase(databaseConfig());
    }

    double
    load(engine::ParallelSearchEngine &eng) const override
    {
        // Records are materialized a chunk at a time (outside the
        // timed calls) so the 5.4M-record table is never duplicated.
        double seconds = 0.0;
        std::vector<core::Record> chunk;
        chunk.reserve(kLoadChunk);
        for (std::size_t off = 0; off < db_.size(); off += kLoadChunk) {
            chunk.clear();
            const std::size_t end = std::min(db_.size(), off + kLoadChunk);
            for (std::size_t i = off; i < end; ++i)
                chunk.push_back({db_.key(i), db_.score(i)});
            seconds += timedBulkLoad(eng, 0, chunk);
        }
        return seconds;
    }
    uint64_t records() const override { return db_.size(); }
    bool mutating() const override { return false; }
    const OpSource &stream() const override { return stream_; }
    const OpSource *updateProbe() const override { return probe_.get(); }
    double openLoopRate() const override { return kTrigramOpenRate; }
    unsigned setupRepeats() const override { return 2; }

  private:
    static core::DatabaseConfig
    databaseConfig()
    {
        core::SliceConfig shape;
        shape.indexBits = 14;
        shape.logicalKeyBits = caram::speech::trigramKeyBits;
        shape.ternary = false;
        shape.slotsPerBucket = 96;
        shape.dataBits = 32;
        shape.probe = core::ProbePolicy::Linear;
        shape.maxProbeDistance = static_cast<unsigned>(shape.rows() - 1);
        core::DatabaseConfig cfg;
        cfg.name = "trigram-B";
        cfg.sliceShape = shape;
        cfg.physicalSlices = 5;
        cfg.arrangement = core::Arrangement::Vertical;
        cfg.indexFactory = [](const core::SliceConfig &eff)
            -> std::unique_ptr<caram::hash::IndexGenerator> {
            return std::make_unique<caram::hash::DjbIndex>(
                caram::hash::DjbIndex::withBuckets(eff.rows()));
        };
        return cfg;
    }

    caram::speech::SyntheticTrigramDb db_;
    TrigramStream stream_;
    std::unique_ptr<PairProbe> probe_;
};

// ---------------------------------------------------------------------
// flow-churn: a binary 64-bit flow table under lookups and churn.

constexpr unsigned kFlowPorts = 2;
constexpr uint64_t kFlowsPerPort = 1'500'000;
constexpr double kFlowUpdateShare = 0.10;
constexpr double kFlowAbsentShare = 0.20;
/** Largest departure of a port's live-flow count from kFlowsPerPort. */
constexpr uint32_t kFlowDrift = 256;
/** Stream positions generated per second of the run.  The closed loop
 *  runs for under half of it and could consume 1.2M per second, several
 *  times the closed-loop capacity of the engine this benchmark was
 *  written on; the open loop takes kFlowOpenRate.  A faster engine ends
 *  its closed-loop phases early instead of wrapping. */
constexpr double kFlowStreamOpsPerSecond = 0.6e6;

/** Encoded op: kind (2 bits) | port (1 bit) | flow sequence (29 bits). */
enum FlowCode : uint32_t
{
    kFlowLookup = 0,
    kFlowAbsent = 1,
    kFlowInsert = 2,
    kFlowErase = 3,
};
constexpr uint32_t kSeqBits = 29;
constexpr uint32_t kSeqMask = (1u << kSeqBits) - 1;

class FlowStream : public OpSource
{
  public:
    uint64_t seed = 0;
    std::vector<uint32_t> ops;

    uint64_t
    key(unsigned port, uint32_t seq, bool absent) const
    {
        // Distinct (port, seq, absent) map to distinct ids: mix64 is a
        // bijection.
        return mix64(seed ^ (uint64_t{seq} | uint64_t{port} << 32 |
                             uint64_t{absent} << 33));
    }
    static uint64_t data(uint64_t key) { return (key >> 17) & 0xffffffffu; }

    static unsigned code(uint32_t op) { return op >> 30; }
    static unsigned port(uint32_t op) { return (op >> kSeqBits) & 1; }
    static uint32_t seq(uint32_t op) { return op & kSeqMask; }
    uint64_t
    keyOf(uint32_t op) const
    {
        return key(port(op), seq(op), code(op) == kFlowAbsent);
    }

    std::size_t size() const override { return ops.size(); }
    bool cyclic() const override { return false; }
    OpKind
    kind(std::size_t i) const override
    {
        const unsigned c = code(ops[i]);
        return c == kFlowInsert ? OpKind::Insert
                                : c == kFlowErase ? OpKind::Erase
                                                  : OpKind::Lookup;
    }
    void
    fill(std::size_t i, core::PortRequest &req) const override
    {
        const uint32_t op = ops[i];
        const uint64_t k = keyOf(op);
        req.port = port(op);
        const unsigned c = code(op);
        req.op = c == kFlowInsert ? core::PortOp::Insert
                 : c == kFlowErase ? core::PortOp::Erase
                                   : core::PortOp::Search;
        req.key = Key::fromUint(k, 64);
        req.data = c == kFlowInsert ? data(k) : 0;
        req.priority = 0;
    }
    void
    check(std::size_t i, const core::PortResponse &resp,
          Outcome &out) const override
    {
        // The reference replay (replayCheck) judges the answer; record
        // what the engine said.
        ++out.attempted;
        if (!resp.ok || i >= out.recorded.size()) {
            out.fail("flow op @" + std::to_string(i) +
                     (resp.ok ? " has no reference slot" : " not ok"));
            return;
        }
        // Data a hit must carry: the flow's data, or one erased copy.
        const uint64_t want =
            kind(i) == OpKind::Erase ? 1 : data(keyOf(ops[i]));
        uint8_t rec = Outcome::kRan;
        if (resp.hit)
            rec |= Outcome::kHit;
        if (kind(i) == OpKind::Insert || resp.data == want)
            rec |= Outcome::kDataOk;
        out.recorded[i] = rec;
    }
};

class FlowChurn : public Workload
{
  public:
    FlowChurn(uint64_t seed, double seconds)
    {
        stream_.seed = mix64(seed ^ 0xf10e);
        // At least the lookups the modeled figure replays.
        const std::size_t n = static_cast<std::size_t>(
            std::max(2.0, seconds) * kFlowStreamOpsPerSecond);
        stream_.ops.resize(n);
        Rng rng(mix64(seed ^ 0xc4124));
        // Live flows of a port are exactly the sequences [lo, hi):
        // inserts append, erases retire the oldest.  Inserts and erases
        // are equally likely, with the live count held within
        // kFlowDrift of its start, so the load stays constant while
        // consecutive inserts (which the writer lane may combine) occur.
        uint32_t lo[kFlowPorts] = {};
        uint32_t hi[kFlowPorts] = {kFlowsPerPort, kFlowsPerPort};
        for (std::size_t i = 0; i < n; ++i) {
            const unsigned p = static_cast<unsigned>(rng.below(kFlowPorts));
            uint32_t code = kFlowLookup;
            uint32_t seq = 0;
            if (rng.chance(kFlowUpdateShare)) {
                const uint32_t live = hi[p] - lo[p];
                const bool insert =
                    live < kFlowsPerPort - kFlowDrift ||
                    (live < kFlowsPerPort + kFlowDrift && rng.chance(0.5));
                code = insert ? kFlowInsert : kFlowErase;
                seq = insert ? hi[p]++ : lo[p]++;
            } else if (rng.chance(kFlowAbsentShare)) {
                code = kFlowAbsent;
                seq = static_cast<uint32_t>(rng.below(kSeqMask + 1));
            } else {
                seq = lo[p] + static_cast<uint32_t>(rng.below(hi[p] - lo[p]));
            }
            stream_.ops[i] = code << 30 | p << kSeqBits | seq;
        }
    }

    std::string name() const override { return "flow-churn"; }
    engine::EngineConfig
    engineConfig() const override
    {
        engine::EngineConfig cfg;
        cfg.workers = 2;
        return cfg;
    }
    void
    addDatabases(core::CaRamSubsystem &sys) const override
    {
        for (unsigned p = 0; p < kFlowPorts; ++p) {
            core::SliceConfig shape;
            shape.indexBits = 18;
            shape.logicalKeyBits = 64;
            shape.ternary = false;
            shape.slotsPerBucket = 8;
            shape.dataBits = 32;
            shape.probe = core::ProbePolicy::Linear;
            core::DatabaseConfig cfg;
            cfg.name = "flows" + std::to_string(p);
            cfg.sliceShape = shape;
            cfg.indexFactory = [](const core::SliceConfig &eff)
                -> std::unique_ptr<caram::hash::IndexGenerator> {
                return std::make_unique<caram::hash::XorFoldIndex>(
                    eff.indexBits);
            };
            sys.addDatabase(cfg);
        }
    }
    double
    load(engine::ParallelSearchEngine &eng) const override
    {
        double seconds = 0.0;
        std::vector<core::Record> chunk;
        chunk.reserve(kLoadChunk);
        for (unsigned p = 0; p < kFlowPorts; ++p) {
            for (uint64_t off = 0; off < kFlowsPerPort; off += kLoadChunk) {
                chunk.clear();
                const uint64_t end =
                    std::min<uint64_t>(kFlowsPerPort, off + kLoadChunk);
                for (uint64_t s = off; s < end; ++s) {
                    const uint64_t k =
                        stream_.key(p, static_cast<uint32_t>(s), false);
                    chunk.push_back({Key::fromUint(k, 64), FlowStream::data(k)});
                }
                seconds += timedBulkLoad(eng, p, chunk);
            }
        }
        return seconds;
    }
    uint64_t records() const override { return kFlowPorts * kFlowsPerPort; }
    bool mutating() const override { return true; }
    const OpSource &stream() const override { return stream_; }
    double openLoopRate() const override { return kFlowOpenRate; }
    unsigned setupRepeats() const override { return 3; }

    void
    replayCheck(std::vector<Outcome *> phases) const override
    {
        std::size_t upto = 0;
        for (const Outcome *o : phases) {
            for (std::size_t i = o->recorded.size(); i > upto; --i) {
                if (o->recorded[i - 1] != 0) {
                    upto = i;
                    break;
                }
            }
        }
        // Independent reference: one map per port, replaying the
        // stream's ops in per-port submission order from the loaded
        // table.
        std::vector<std::unordered_map<uint64_t, uint64_t>> ref(kFlowPorts);
        for (unsigned p = 0; p < kFlowPorts; ++p) {
            ref[p].reserve(kFlowsPerPort + upto / 16);
            for (uint64_t s = 0; s < kFlowsPerPort; ++s) {
                const uint64_t k = stream_.key(p, static_cast<uint32_t>(s), false);
                ref[p].emplace(k, FlowStream::data(k));
            }
        }
        for (std::size_t i = 0; i < upto; ++i) {
            const uint32_t op = stream_.ops[i];
            const unsigned p = FlowStream::port(op);
            const uint64_t k = stream_.keyOf(op);
            // The reference's verdict: placed, removed, or found (a found
            // flow carries the data it was inserted with, data(k), which
            // check() compared).
            bool want_hit = false;
            switch (FlowStream::code(op)) {
            case kFlowInsert:
                want_hit = ref[p].emplace(k, FlowStream::data(k)).second;
                break;
            case kFlowErase:
                want_hit = ref[p].erase(k) == 1;
                break;
            default:
                want_hit = ref[p].count(k) == 1;
                break;
            }
            for (Outcome *o : phases) {
                if (i >= o->recorded.size() || o->recorded[i] == 0)
                    continue;
                const uint8_t rec = o->recorded[i];
                const bool hit = rec & Outcome::kHit;
                if (hit != want_hit || (hit && !(rec & Outcome::kDataOk))) {
                    o->fail("flow op @" + std::to_string(i) +
                            " reference hit=" + std::to_string(want_hit) +
                            " engine hit=" + std::to_string(hit));
                }
            }
        }
    }

  private:
    FlowStream stream_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"ipv4-lpm", "trigram-zipf",
                                                   "flow-churn"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, double seconds)
{
    if (name == "ipv4-lpm")
        return std::make_unique<Ipv4Lpm>(seed);
    if (name == "trigram-zipf")
        return std::make_unique<TrigramZipf>(seed);
    if (name == "flow-churn")
        return std::make_unique<FlowChurn>(seed, seconds);
    return nullptr;
}

} // namespace perfbench
