#include "ladder.h"

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>

#include "core/match_processor.h"
#include "drivers.h"

namespace perfbench {

namespace core = caram::core;
namespace engine = caram::engine;

namespace {

/** The first @p n requests of @p src, tagged with their positions. */
std::vector<core::PortRequest>
requestsOf(const OpSource &src, std::size_t n)
{
    if (!src.cyclic())
        n = std::min(n, src.size());
    std::vector<core::PortRequest> reqs(n);
    for (std::size_t i = 0; i < n; ++i) {
        src.fill(i, reqs[i]);
        reqs[i].tag = i;
    }
    return reqs;
}

bool
isUpdate(const core::PortRequest &req)
{
    return req.op == core::PortOp::Insert || req.op == core::PortOp::Erase;
}

/** Replays positions pos[0..) of a base source: a subset of a stream. */
class Subset : public OpSource
{
  public:
    Subset(const OpSource &base, std::vector<std::size_t> pos)
        : base_(base), pos_(std::move(pos))
    {
    }
    std::size_t size() const override { return pos_.size(); }
    bool cyclic() const override { return false; }
    void
    fill(std::size_t i, core::PortRequest &req) const override
    {
        base_.fill(pos_[i], req);
    }
    OpKind kind(std::size_t i) const override { return base_.kind(pos_[i]); }
    void
    check(std::size_t i, const core::PortResponse &resp,
          Outcome &out) const override
    {
        base_.check(pos_[i], resp, out);
    }

  private:
    const OpSource &base_;
    std::vector<std::size_t> pos_;
};

struct SliceSpanIds
{
    uint32_t search, update, match, row;
};

/** The response the engine would give for a layer's answer. */
core::PortResponse
responseOf(const core::PortRequest &req, bool hit, uint64_t data)
{
    core::PortResponse resp;
    resp.tag = req.tag;
    resp.port = req.port;
    resp.op = req.op;
    resp.hit = hit;
    resp.data = data;
    return resp;
}

/**
 * Replays requests through each port's CaRamSlice.  With spans, every
 * slice call is a span, and each lookup's visited rows (from
 * searchTraced, untimed) are then re-matched one MatchProcessor call per
 * row, each its own span under a per-lookup parent.  With @p check, each
 * answer is checked against the stream's reference, outside the spans.
 */
class SliceReplay
{
  public:
    explicit SliceReplay(core::CaRamSubsystem &sys) : sys_(sys)
    {
        for (std::size_t p = 0; p < sys.databaseCount(); ++p) {
            matchers_.emplace_back(
                sys.database(static_cast<unsigned>(p)).slice().config());
        }
    }

    void
    run(std::span<const core::PortRequest> reqs, SpanRecorder *spans,
        const SliceSpanIds *ids, const OpSource *check = nullptr,
        Outcome *out = nullptr)
    {
        for (const core::PortRequest &req : reqs) {
            core::CaRamSlice &slice = sys_.database(req.port).slice();
            core::PortResponse resp;
            if (isUpdate(req)) {
                const uint32_t h =
                    spans ? spans->open(ids->update, req.tag) : 0;
                if (req.op == core::PortOp::Insert) {
                    const bool placed = slice.insert({req.key, req.data}).ok;
                    if (spans)
                        spans->close(h);
                    resp = responseOf(req, placed, 0);
                } else {
                    const unsigned erased = slice.erase(req.key);
                    if (spans)
                        spans->close(h);
                    resp = responseOf(req, erased > 0, erased);
                }
            } else {
                const uint32_t h =
                    spans ? spans->open(ids->search, req.tag) : 0;
                const core::SearchResult r = slice.search(req.key);
                if (spans)
                    spans->close(h);
                ++lookups;
                rows += r.bucketsAccessed;
                if (spans)
                    matchRows(slice, req, *spans, *ids);
                resp = responseOf(req, r.hit, r.data);
            }
            if (check)
                check->check(req.tag, resp, *out);
        }
    }

    uint64_t lookups = 0;
    uint64_t rows = 0; ///< bucketsAccessed summed over the lookups

  private:
    void
    matchRows(core::CaRamSlice &slice, const core::PortRequest &req,
              SpanRecorder &spans, const SliceSpanIds &ids)
    {
        visited_.clear();
        slice.searchTraced(req.key, visited_);
        const core::MatchProcessor &mp = matchers_[req.port];
        mp.pack(req.key, packed_);
        const bool lpm = slice.config().lpm;
        const uint32_t parent = spans.open(ids.match, req.tag);
        for (const uint64_t row : visited_) {
            const uint32_t h = spans.open(ids.row, req.tag, parent);
            const core::BucketMatch m =
                lpm ? mp.searchBucketBestPacked(slice.bucket(row), packed_)
                    : mp.searchBucketPacked(slice.bucket(row), packed_);
            spans.close(h);
            sink_ += m.hit;
        }
        spans.close(parent);
    }

    core::CaRamSubsystem &sys_;
    std::vector<core::MatchProcessor> matchers_;
    core::MatchProcessor::PackedKey packed_;
    std::vector<uint64_t> visited_;
    /** Keeps the re-matched rows' results observable. */
    uint64_t sink_ = 0;
};

/** Engine counters a pass is measured by (deltas of these). */
struct EngineSnap
{
    uint64_t completed = 0;
    uint64_t modeledCycles = 0;
    double latencySum = 0.0;
    uint64_t latencyCount = 0;
    engine::EngineReport report;

    EngineSnap(const engine::ParallelSearchEngine &eng, unsigned ports)
        : report(eng.report())
    {
        for (unsigned p = 0; p < ports; ++p) {
            const engine::PortStats &s = eng.portStats(p);
            completed += s.completed.load();
            modeledCycles += s.modeledCycles.load();
            latencySum += s.latencyUs.sum();
            latencyCount += s.latencyUs.count();
        }
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
runLadder(const Workload &w, Metrics &m, Outcome &out, SpanRecorder &spans)
{
    const OpSource &src = w.stream();
    const bool mut = w.mutating();
    const double empty_ns = SpanRecorder::emptySpanNs();
    // Mean span duration net of the recorder's own cost, ns.
    const auto net = [&](uint32_t name) {
        const uint64_t n = spans.count(name);
        return n ? (spans.totalNs(name) - empty_ns * static_cast<double>(n)) /
                       static_cast<double>(n)
                 : 0.0;
    };
    // Phases: three layers below the engine, four engine passes and the
    // writer pass.  Outcomes are handed out by pointer, so the vector is
    // sized once.
    std::vector<Outcome> phases(8);
    std::vector<Outcome *> replayed; // phases that ran from position 0
    std::size_t next_phase = 0;
    const auto phase = [&](std::size_t positions, bool from_start) {
        Outcome &o = phases.at(next_phase++);
        if (mut)
            o.recorded.assign(std::min(positions, src.size()), 0);
        if (from_start)
            replayed.push_back(&o);
        return &o;
    };

    // Below the engine every layer replays the same positions against
    // its own copy of the tables (one shared copy when the stream is
    // read-only), one kWindow chunk per layer in turn, so host drift
    // lands on every layer alike.
    Stack a = buildStack(w, std::nullopt, false);
    printResolved(w, *a.engine);
    const double ingest_ns =
        a.loadSeconds * 1e9 / static_cast<double>(w.records());
    const unsigned ports = static_cast<unsigned>(a.sys->databaseCount());
    Stack b, c;
    if (mut) {
        b = buildStack(w, std::nullopt, false);
        c = buildStack(w, std::nullopt, false);
    }
    core::CaRamSubsystem &db_sys = mut ? *b.sys : *a.sys;
    core::CaRamSubsystem &sub_sys = mut ? *c.sys : *a.sys;

    const std::vector<core::PortRequest> reqs = requestsOf(src, kLadderOps);
    if (!mut) {
        // Warm the table's hot rows the way every later pass finds them.
        for (const core::PortRequest &req : reqs)
            a.sys->database(req.port).search(req.key);
    }

    const uint32_t hash_id = spans.nameId("hash.index");
    const SliceSpanIds slice_ids{spans.nameId("core.slice.search"),
                                 spans.nameId("core.slice.update"),
                                 spans.nameId("core.match"),
                                 spans.nameId("core.match.row")};
    const uint32_t db_search = spans.nameId("core.database.search");
    const uint32_t db_update = spans.nameId("core.database.update");
    const uint32_t sub_round = spans.nameId("core.subsystem.round");
    const uint32_t sub_submit = spans.nameId("core.subsystem.submitBatch");
    const uint32_t sub_process = spans.nameId("core.subsystem.process");
    const uint32_t sub_fetch = spans.nameId("core.subsystem.fetchResult");
    SliceReplay slices(*a.sys);
    Outcome *slice_out = phase(reqs.size(), true);
    Outcome *db_out = phase(reqs.size(), true);
    Outcome *sub_out = phase(reqs.size(), true);
    std::vector<std::optional<core::PortResponse>> sub_resp(kWindow);
    uint64_t hash_sink = 0, hash_calls = 0;
    for (std::size_t off = 0; off < reqs.size(); off += kWindow) {
        const std::size_t n = std::min(kWindow, reqs.size() - off);
        const std::span<const core::PortRequest> chunk(reqs.data() + off, n);

        // hash: IndexGenerator::index per lookup key.  A call costs less
        // than a span, so one span covers the chunk's calls.
        const uint32_t hs = spans.open(hash_id, off);
        for (const core::PortRequest &req : chunk) {
            if (isUpdate(req))
                continue;
            const caram::hash::IndexGenerator &gen =
                a.sys->database(req.port).slice().indexGenerator();
            hash_sink += gen.index(req.key.valueWords(), req.key.bits());
            ++hash_calls;
        }
        spans.close(hs);

        // core.slice, then core.match over the rows each lookup visited.
        const auto slice_layer = [&] {
            slices.run(chunk, &spans, &slice_ids, &src, slice_out);
        };

        const auto database_layer = [&] {
            for (const core::PortRequest &req : chunk) {
                core::Database &db = db_sys.database(req.port);
                const uint32_t h =
                    spans.open(isUpdate(req) ? db_update : db_search, req.tag);
                core::PortResponse resp;
                if (req.op == core::PortOp::Search) {
                    const core::SearchResult r = db.search(req.key);
                    spans.close(h);
                    resp = responseOf(req, r.hit, r.data);
                } else if (req.op == core::PortOp::Insert) {
                    const bool placed =
                        db.insert({req.key, req.data}, req.priority);
                    spans.close(h);
                    resp = responseOf(req, placed, 0);
                } else {
                    const unsigned erased = db.erase(req.key);
                    spans.close(h);
                    resp = responseOf(req, erased > 0, erased);
                }
                src.check(req.tag, resp, *db_out);
            }
        };

        // One serial submitBatch / process / fetchResult round; the
        // responses are checked after the round.
        const auto subsystem_layer = [&] {
            const uint32_t r = spans.open(sub_round, off);
            uint32_t h = spans.open(sub_submit, off, r);
            const std::size_t accepted = sub_sys.submitBatch(chunk);
            spans.close(h);
            h = spans.open(sub_process, off, r);
            sub_sys.process();
            spans.close(h);
            for (std::size_t k = 0; k < n; ++k) {
                h = spans.open(sub_fetch, off + k, r);
                sub_resp[k] = sub_sys.fetchResult();
                spans.close(h);
            }
            spans.close(r);
            for (std::size_t k = 0; k < n; ++k) {
                const std::optional<core::PortResponse> &resp = sub_resp[k];
                if (k >= accepted || !resp || resp->tag != off + k) {
                    ++sub_out->attempted;
                    sub_out->fail("subsystem response @" +
                                  std::to_string(off + k));
                    continue;
                }
                src.check(off + k, *resp, *sub_out);
            }
        };

        // On a shared table the first layer to visit a chunk pays its
        // cold row fetches; rotating the order spreads that evenly.
        const std::function<void()> layers[] = {slice_layer, database_layer,
                                                subsystem_layer};
        const std::size_t turn = off / kWindow;
        for (std::size_t l = 0; l < 3; ++l)
            layers[(turn + l) % 3]();
    }
    volatile uint64_t keep = hash_sink;
    (void)keep;

    const double rows_per_search =
        ratio(static_cast<double>(slices.rows),
              static_cast<double>(slices.lookups));
    const double hash_ns = ratio(spans.totalNs(hash_id),
                                 static_cast<double>(hash_calls));
    const double row_ns = net(slice_ids.row);
    const double slice_ns = net(slice_ids.search);
    const double db_search_ns = net(db_search);
    // Per request, over every span of the named calls, net of the
    // recorder's own cost.
    const auto per_request = [&](std::initializer_list<uint32_t> names) {
        double ns = 0.0;
        for (const uint32_t name : names) {
            ns += spans.totalNs(name) -
                  empty_ns * static_cast<double>(spans.count(name));
        }
        return ns / static_cast<double>(reqs.size());
    };
    const double db_op_ns = per_request({db_search, db_update});
    const double sub_op_ns =
        per_request({sub_submit, sub_process, sub_fetch});
    m.set("hash.index_ns", hash_ns, "ns");
    m.set("core.match.row_ns", row_ns, "ns");
    m.set("core.slice.search_ns", slice_ns, "ns");
    m.set("core.slice.self_ns", slice_ns - hash_ns - row_ns * rows_per_search,
          "ns");
    m.set("core.slice.rows_per_search", rows_per_search, "count");
    m.set("core.database.search_ns", db_search_ns, "ns");
    m.set("core.database.self_ns", db_search_ns - slice_ns, "ns");
    m.set("core.database.ingest_ns", ingest_ns, "ns");
    m.set("core.subsystem.op_ns", sub_op_ns, "ns");
    m.set("core.subsystem.self_ns", sub_op_ns - db_op_ns, "ns");
    b.release();
    c.release();

    // Each engine pass starts from a freshly loaded table when the
    // stream writes; a read-only stream reuses one and moves on to
    // unseen positions each pass, so the result cache sees no replay.
    const auto engine_stack = [&]() -> engine::ParallelSearchEngine & {
        if (mut) {
            a.release();
            a = buildStack(w, std::nullopt, true);
        } else {
            a.engine->start();
            pinThreads();
        }
        return *a.engine;
    };

    // engine: untraced and traced closed-loop passes, alternating.
    {
        const EngineSpanIds ids{spans.nameId("engine.round"),
                                spans.nameId("engine.submitBatch"),
                                spans.nameId("engine.drain"),
                                spans.nameId("engine.fetchResult")};
        std::vector<double> untraced_mops, traced_mops;
        // Engine counters come from the untraced passes, spans from the
        // traced ones.
        uint64_t traced_ops = 0, d_completed = 0, d_cycles = 0, d_hits = 0,
                 d_misses = 0, d_lat_count = 0;
        double d_lat_sum = 0.0;
        std::size_t first = mut ? 0 : reqs.size();
        for (int pass = 0; pass < 4; ++pass) {
            const bool traced = pass % 2 == 1;
            engine::ParallelSearchEngine &eng = engine_stack();
            Outcome *po = phase(first + kEngineOps, first == 0);
            const EngineSnap before(eng, ports);
            const ClosedResult cr = closedLoop(
                eng, ports, src, first, *po, kPassSeconds, kEngineOps,
                traced ? &spans : nullptr, traced ? &ids : nullptr);
            const EngineSnap after(eng, ports);
            (traced ? traced_mops : untraced_mops)
                .push_back(static_cast<double>(cr.ops) / cr.seconds * 1e-6);
            if (traced) {
                traced_ops += cr.ops;
            } else {
                d_completed += after.completed - before.completed;
                d_cycles += after.modeledCycles - before.modeledCycles;
                d_hits += after.report.cacheHits - before.report.cacheHits;
                d_misses +=
                    after.report.cacheMisses - before.report.cacheMisses;
                d_lat_sum += after.latencySum - before.latencySum;
                d_lat_count += after.latencyCount - before.latencyCount;
            }
            if (!mut)
                first += kEngineOps;
        }
        const double ops = static_cast<double>(traced_ops);
        const double engine_op_ns = 1e3 / median(untraced_mops);
        const auto per_op = [&](uint32_t name) {
            return (spans.totalNs(name) -
                    empty_ns * static_cast<double>(spans.count(name))) /
                   ops;
        };
        m.set("engine.op_ns", engine_op_ns, "ns");
        m.set("engine.self_ns", engine_op_ns - sub_op_ns, "ns");
        m.set("engine.submit_ns", per_op(ids.submit), "ns");
        m.set("engine.drain_wait_ns", per_op(ids.drain), "ns");
        m.set("engine.fetch_ns", per_op(ids.fetch), "ns");
        m.set("engine.queue_us_mean",
              ratio(d_lat_sum, static_cast<double>(d_lat_count)), "us");
        m.set("engine.modeled_cycles_per_op",
              ratio(static_cast<double>(d_cycles),
                    static_cast<double>(d_completed)),
              "cycles");
        m.set("engine.cache.hit_ratio",
              ratio(static_cast<double>(d_hits),
                    static_cast<double>(d_hits + d_misses)),
              "ratio");
        m.set("trace.overhead_pct",
              (median(untraced_mops) / median(traced_mops) - 1.0) * 100.0,
              "%");
    }

    // engine.writer: the stream's updates alone (or, on a read-only
    // workload, its insert/erase probe) in closed-loop rounds.
    {
        std::optional<Subset> updates;
        const OpSource *wsrc = w.updateProbe();
        // Skipping lookups changes no table state, so the reference
        // replay of the whole stream still judges these updates.
        std::size_t replay_upto = 0;
        if (!wsrc) {
            std::vector<std::size_t> pos;
            for (std::size_t i = 0; i < src.size() && pos.size() < 10000; ++i)
                if (src.kind(i) != OpKind::Lookup)
                    pos.push_back(i);
            replay_upto = pos.empty() ? 0 : pos.back() + 1;
            updates.emplace(src, std::move(pos));
            wsrc = &*updates;
        }
        engine::ParallelSearchEngine &eng = engine_stack();
        Outcome *o = phase(replay_upto, replay_upto > 0);
        const EngineSnap before(eng, ports);
        const ClosedResult cr = closedLoop(eng, ports, *wsrc, 0, *o,
                                           kPassSeconds, wsrc->size());
        const EngineSnap after(eng, ports);
        const engine::EngineReport &ra = after.report;
        const engine::EngineReport &rb = before.report;
        m.set("engine.writer.update_ns",
              cr.seconds * 1e9 / static_cast<double>(cr.ops), "ns");
        m.set("engine.writer.rows_per_insert",
              ratio(static_cast<double>(ra.writerIngest.rowFetches -
                                        rb.writerIngest.rowFetches),
                    static_cast<double>(ra.writerIngest.accepted -
                                        rb.writerIngest.accepted)),
              "count");
        m.set("engine.writer.combined_ratio",
              ratio(static_cast<double>(ra.rowsCombined - rb.rowsCombined),
                    static_cast<double>(ra.writerSerialRowFetches -
                                        rb.writerSerialRowFetches)),
              "ratio");
        m.set("engine.cache.invalidations_per_update",
              ratio(static_cast<double>(ra.cacheInvalidations -
                                        rb.cacheInvalidations),
                    static_cast<double>(cr.ops)),
              "count");
    }
    a.release();

    w.replayCheck(replayed);
    for (const Outcome &o : phases) {
        out.attempted += o.attempted;
        out.failed += o.failed;
    }
}

double
sliceRowsPerSearch(const Workload &w, core::CaRamSubsystem &sys)
{
    const std::vector<core::PortRequest> reqs =
        requestsOf(w.stream(), kLadderOps);
    SliceReplay slices(sys);
    slices.run(reqs, nullptr, nullptr);
    return ratio(static_cast<double>(slices.rows),
                 static_cast<double>(slices.lookups));
}

} // namespace perfbench
