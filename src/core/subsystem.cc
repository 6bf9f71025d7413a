#include "core/subsystem.h"

#include <ostream>

#include "common/logging.h"
#include "common/strings.h"

namespace caram::core {

CaRamSubsystem::CaRamSubsystem(std::size_t request_queue_capacity,
                               std::size_t result_queue_capacity,
                               bool split_port_queues)
    : results(result_queue_capacity),
      requestCapacity(request_queue_capacity),
      splitQueues(split_port_queues)
{
    if (!splitQueues)
        requestQueues.emplace_back(requestCapacity);
}

Database &
CaRamSubsystem::addDatabase(DatabaseConfig config)
{
    for (const auto &db : databases) {
        if (db->name() == config.name)
            fatal(strprintf("database '%s' already exists",
                            config.name.c_str()));
    }
    databases.push_back(std::make_unique<Database>(std::move(config)));
    if (splitQueues)
        requestQueues.emplace_back(requestCapacity);
    return *databases.back();
}

sim::BoundedQueue<PortRequest> &
CaRamSubsystem::queueFor(unsigned port)
{
    return splitQueues ? requestQueues[port] : requestQueues.front();
}

const sim::BoundedQueue<PortRequest> &
CaRamSubsystem::requestQueue(unsigned port) const
{
    if (splitQueues) {
        if (port >= requestQueues.size())
            fatal(strprintf("no request queue for virtual port %u",
                            port));
        return requestQueues[port];
    }
    // Shared-queue mode: every port routes to the one queue, but a port
    // that routes nowhere is still a caller error (port 0 always names
    // the shared queue itself).
    if (port != 0 && port >= databases.size())
        fatal(strprintf("no request queue for virtual port %u", port));
    return requestQueues.front();
}

Database &
CaRamSubsystem::database(unsigned port)
{
    if (port >= databases.size())
        fatal(strprintf("no database behind virtual port %u", port));
    return *databases[port];
}

Database &
CaRamSubsystem::database(const std::string &name)
{
    return database(portOf(name));
}

unsigned
CaRamSubsystem::portOf(const std::string &name) const
{
    for (std::size_t i = 0; i < databases.size(); ++i) {
        if (databases[i]->name() == name)
            return static_cast<unsigned>(i);
    }
    fatal(strprintf("no database named '%s'", name.c_str()));
}

bool
CaRamSubsystem::submit(unsigned port, const Key &key, uint64_t tag)
{
    if (port >= databases.size())
        fatal(strprintf("submit to unknown virtual port %u", port));
    PortRequest req;
    req.port = port;
    req.op = PortOp::Search;
    req.key = key;
    req.tag = tag;
    return queueFor(port).tryPush(std::move(req));
}

bool
CaRamSubsystem::submitInsert(unsigned port, const Record &record,
                             int priority, uint64_t tag)
{
    if (port >= databases.size())
        fatal(strprintf("submit to unknown virtual port %u", port));
    PortRequest req;
    req.port = port;
    req.op = PortOp::Insert;
    req.key = record.key;
    req.data = record.data;
    req.priority = priority;
    req.tag = tag;
    return queueFor(port).tryPush(std::move(req));
}

bool
CaRamSubsystem::submitErase(unsigned port, const Key &key, uint64_t tag)
{
    if (port >= databases.size())
        fatal(strprintf("submit to unknown virtual port %u", port));
    PortRequest req;
    req.port = port;
    req.op = PortOp::Erase;
    req.key = key;
    req.tag = tag;
    return queueFor(port).tryPush(std::move(req));
}

bool
CaRamSubsystem::submitRebuild(unsigned port, uint64_t tag)
{
    if (port >= databases.size())
        fatal(strprintf("submit to unknown virtual port %u", port));
    PortRequest req;
    req.port = port;
    req.op = PortOp::Rebuild; // the key field is unused for rebuilds
    req.tag = tag;
    return queueFor(port).tryPush(std::move(req));
}

std::size_t
CaRamSubsystem::submitBatch(std::span<const PortRequest> requests)
{
    std::size_t accepted = 0;
    for (const PortRequest &req : requests) {
        if (req.port >= databases.size())
            fatal(strprintf("submit to unknown virtual port %u",
                            req.port));
        if (!queueFor(req.port).tryPush(req))
            break; // keep the accepted prefix contiguous (FIFO order)
        ++accepted;
    }
    return accepted;
}

PortResponse
executePortRequest(Database &db, const PortRequest &req)
{
    PortResponse resp;
    resp.tag = req.tag;
    resp.port = req.port;
    resp.op = req.op;
    if (db.powerState() != PowerState::Active) {
        // The database is retained: answer with an error response
        // instead of throwing, so the rest of the drain survives.
        resp.ok = false;
        return resp;
    }
    switch (req.op) {
      case PortOp::Search: {
        const SearchResult r = db.search(req.key);
        resp.hit = r.hit;
        resp.data = r.data;
        resp.key = r.key;
        resp.bucketsAccessed = r.bucketsAccessed;
        break;
      }
      case PortOp::Insert:
        resp.hit = db.insert(Record{req.key, req.data}, req.priority);
        break;
      case PortOp::Erase:
        resp.data = db.erase(req.key);
        resp.hit = resp.data > 0;
        break;
      case PortOp::Rebuild: {
        if (!db.canRebuild()) {
            resp.ok = false;
            break;
        }
        const Database::RebuildSummary s = db.rebuild();
        resp.hit = s.ok;
        resp.data = s.records;
        break;
      }
    }
    return resp;
}

std::size_t
CaRamSubsystem::process(std::size_t max_requests)
{
    std::size_t done = 0;
    std::size_t idle_queues = 0;
    while (done < max_requests && !results.full() &&
           idle_queues < requestQueues.size()) {
        // Round-robin over the (possibly split) request queues.
        auto &queue = requestQueues[nextQueue];
        nextQueue = (nextQueue + 1) % requestQueues.size();
        auto req = queue.tryPop();
        if (!req) {
            ++idle_queues;
            continue;
        }
        idle_queues = 0;
        PortResponse resp = executePortRequest(*databases[req->port],
                                               *req);
        results.tryPush(std::move(resp)); // cannot fail: checked above
        ++done;
    }
    return done;
}

std::optional<PortResponse>
CaRamSubsystem::fetchResult()
{
    return results.tryPop();
}

uint64_t
CaRamSubsystem::ramWords() const
{
    uint64_t total = 0;
    for (const auto &db : databases)
        total += db->slice().ramWords();
    return total;
}

std::pair<const Database *, uint64_t>
CaRamSubsystem::ramRoute(uint64_t word_addr) const
{
    for (const auto &db : databases) {
        const uint64_t words = db->slice().ramWords();
        if (word_addr < words)
            return {db.get(), word_addr};
        word_addr -= words;
    }
    fatal("RAM-mode address beyond the subsystem's storage");
}

std::pair<Database *, uint64_t>
CaRamSubsystem::ramRoute(uint64_t word_addr)
{
    for (const auto &db : databases) {
        const uint64_t words = db->slice().ramWords();
        if (word_addr < words)
            return {db.get(), word_addr};
        word_addr -= words;
    }
    fatal("RAM-mode address beyond the subsystem's storage");
}

uint64_t
CaRamSubsystem::ramLoad(uint64_t word_addr) const
{
    auto [db, local] = ramRoute(word_addr);
    return db->slice().ramLoad(local);
}

void
CaRamSubsystem::ramStore(uint64_t word_addr, uint64_t value)
{
    auto [db, local] = ramRoute(word_addr);
    db->slice().ramStore(local, value);
}

void
CaRamSubsystem::printStats(std::ostream &os) const
{
    os << "---------- CA-RAM subsystem stats ----------\n";
    for (std::size_t i = 0; i < databases.size(); ++i) {
        const Database &db = *databases[i];
        const LoadStats s = db.loadStats();
        const CaRamSlice &slice = db.slice();
        os << "db." << db.name() << ".port " << i << "\n"
           << "db." << db.name() << ".records " << s.records << "\n"
           << "db." << db.name() << ".loadFactor " << s.loadFactor()
           << "\n"
           << "db." << db.name() << ".spilledRecords "
           << s.spilledRecords << "\n"
           << "db." << db.name() << ".overflowingBuckets "
           << s.overflowingBuckets << "\n"
           << "db." << db.name() << ".amalUniform " << s.amalUniform()
           << "\n"
           << "db." << db.name() << ".searches "
           << slice.searchesPerformed() << "\n"
           << "db." << db.name() << ".bucketAccesses "
           << slice.searchAccesses() << "\n"
           << "db." << db.name() << ".overflowEntries "
           << db.overflowEntries() << "\n"
           << "db." << db.name() << ".areaMm2 " << db.areaUm2() * 1e-6
           << "\n";
    }
    for (std::size_t q = 0; q < requestQueues.size(); ++q) {
        os << "queue.request." << q << ".pushes "
           << requestQueues[q].totalPushes() << "\n"
           << "queue.request." << q << ".stalls "
           << requestQueues[q].totalStalls() << "\n"
           << "queue.request." << q << ".peak "
           << requestQueues[q].peakOccupancy() << "\n";
    }
    os << "queue.result.pushes " << results.totalPushes() << "\n"
       << "queue.result.stalls " << results.totalStalls() << "\n"
       << "queue.result.peak " << results.peakOccupancy() << "\n"
       << "--------------------------------------------\n";
}

double
CaRamSubsystem::totalAreaUm2() const
{
    double total = 0.0;
    for (const auto &db : databases)
        total += db->areaUm2();
    return total;
}

} // namespace caram::core
