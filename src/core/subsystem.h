#ifndef CARAM_CORE_SUBSYSTEM_H_
#define CARAM_CORE_SUBSYSTEM_H_

/**
 * @file
 * The CA-RAM memory subsystem of paper Figure 5: multiple databases
 * (slice groups) behind an input controller with request and result
 * queues, addressed through virtual ports, plus the RAM-mode view of
 * the aggregate storage.
 *
 * "Requests and results are both queued for achieving maximum bandwidth
 * without interruptions. ... each port address can be tied to a 'virtual
 * port' mapped to a specific database."
 */

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/database.h"
#include "sim/queue.h"

namespace caram::core {

/** CAM-mode operation carried by a request (paper section 3.2: "There
 *  are three main operations defined for the CAM mode: (1) search,
 *  (2) insert, and (3) delete").  Rebuild is a maintenance operation
 *  on top of those: repack a database in place (Database::rebuild())
 *  through the same queued protocol, so an engine worker that owns the
 *  database can run it between batches. */
enum class PortOp
{
    Search,
    Insert,
    Erase,
    Rebuild,
};

/** A queued CAM-mode request submitted through a virtual port. */
struct PortRequest
{
    unsigned port = 0;  ///< virtual port = database selector
    PortOp op = PortOp::Search;
    Key key;            ///< search/insert/delete key
    uint64_t data = 0;  ///< record data (Insert)
    int priority = 0;   ///< multi-match priority (Insert)
    uint64_t tag = 0;   ///< caller-chosen identifier echoed in the result
};

/** A completed operation pulled from the result queue. */
struct PortResponse
{
    uint64_t tag = 0;
    unsigned port = 0;  ///< virtual port the request was submitted to
    PortOp op = PortOp::Search;
    /**
     * False when the request could not be executed at all -- e.g. the
     * target database was in PowerState::Retention.  A failed request
     * still produces a response (hit == false) so that one retained
     * database cannot silently swallow, or abort, a drain.
     */
    bool ok = true;
    /** Search: a record matched.  Insert: placed.  Erase: removed. */
    bool hit = false;
    /** Search: matched data.  Erase: copies removed. */
    uint64_t data = 0;
    Key key;                     ///< matched stored key (Search)
    unsigned bucketsAccessed = 0;
};

/**
 * Execute one CAM-mode request against @p db, producing exactly the
 * response the input controller would enqueue.  Requests against an
 * inaccessible database (data-retention mode) come back with
 * ok == false instead of throwing, so drain loops survive.  Shared by
 * CaRamSubsystem::process() and the parallel search engine so both
 * produce bit-identical result streams.
 */
PortResponse executePortRequest(Database &db, const PortRequest &req);

/** The full CA-RAM memory subsystem. */
class CaRamSubsystem
{
  public:
    /**
     * @param request_queue_capacity depth of each request queue
     * @param result_queue_capacity  depth of the result queue
     * @param split_port_queues      give every virtual port its own
     *        request queue ("request and result queues can be
     *        (physically) split into multiple queues for even higher
     *        bandwidth", section 3.2); one port's backpressure then
     *        cannot block another's
     */
    explicit CaRamSubsystem(std::size_t request_queue_capacity = 64,
                            std::size_t result_queue_capacity = 64,
                            bool split_port_queues = false);

    /**
     * Create a database; its virtual port number is returned by
     * portOf().  The configuration is kept in the subsystem's
     * configuration storage.
     */
    Database &addDatabase(DatabaseConfig config);

    std::size_t databaseCount() const { return databases.size(); }
    Database &database(unsigned port);
    Database &database(const std::string &name);
    unsigned portOf(const std::string &name) const;

    /// @name CAM-mode request/result protocol
    /// @{
    /**
     * Submit a lookup through a virtual port; returns false when the
     * request queue is full (backpressure).
     */
    bool submit(unsigned port, const Key &key, uint64_t tag);

    /** Submit a CAM-mode insert ("Insert and delete operations are
     *  used to construct and maintain a database"). */
    bool submitInsert(unsigned port, const Record &record, int priority,
                      uint64_t tag);

    /** Submit a CAM-mode delete. */
    bool submitErase(unsigned port, const Key &key, uint64_t tag);

    /** Submit a database repack (Database::rebuild()).  The response
     *  reports ok == false when the database cannot be rebuilt, hit
     *  when every record was re-placed, and the logical record count
     *  in data. */
    bool submitRebuild(unsigned port, uint64_t tag);

    /**
     * Submit a batch of pre-built requests, stopping at the first one
     * rejected by a full queue so that per-port FIFO order is preserved.
     * Returns the number accepted (a prefix of @p requests).
     */
    std::size_t submitBatch(std::span<const PortRequest> requests);

    /**
     * Input controller: dispatch up to @p max_requests queued requests
     * to their databases, pushing results into the result queue.  Stops
     * early when the result queue fills.  Returns requests processed.
     */
    std::size_t process(std::size_t max_requests = SIZE_MAX);

    /** Pop the next completed result, if any. */
    std::optional<PortResponse> fetchResult();

    /** The request queue serving @p port (the shared queue when the
     *  subsystem was not built with split queues).  The port must name
     *  an existing queue: in shared-queue mode only ports that route to
     *  a database (or port 0, the queue itself) are accepted. */
    const sim::BoundedQueue<PortRequest> &requestQueue(
        unsigned port = 0) const;
    const sim::BoundedQueue<PortResponse> &resultQueue() const
    {
        return results;
    }
    bool splitPortQueues() const { return splitQueues; }
    /// @}

    /// @name RAM mode (section 3.2)
    /// @{
    /**
     * The aggregate linear word address space: databases are laid out
     * consecutively in port order.
     */
    uint64_t ramWords() const;
    uint64_t ramLoad(uint64_t word_addr) const;
    void ramStore(uint64_t word_addr, uint64_t value);
    /// @}

    /// @name Aggregate cost model
    /// @{
    double totalAreaUm2() const;
    /// @}

    /** Dump per-database and queue statistics (gem5-style stats). */
    void printStats(std::ostream &os) const;

  private:
    /** Map a global RAM-mode address to (database, local address). */
    std::pair<const Database *, uint64_t> ramRoute(uint64_t word_addr) const;
    std::pair<Database *, uint64_t> ramRoute(uint64_t word_addr);

    /** The request queue a port submits into. */
    sim::BoundedQueue<PortRequest> &queueFor(unsigned port);

    std::vector<std::unique_ptr<Database>> databases;
    std::vector<sim::BoundedQueue<PortRequest>> requestQueues;
    sim::BoundedQueue<PortResponse> results;
    std::size_t requestCapacity;
    bool splitQueues;
    std::size_t nextQueue = 0; ///< round-robin cursor for process()
};

} // namespace caram::core

#endif // CARAM_CORE_SUBSYSTEM_H_
