#ifndef CARAM_SIM_CONCURRENT_QUEUE_H_
#define CARAM_SIM_CONCURRENT_QUEUE_H_

/**
 * @file
 * Thread-safe bounded FIFO: the multi-producer/multi-consumer variant of
 * sim::BoundedQueue used by the parallel search engine's per-worker
 * request queues.  Same bounded-capacity/backpressure semantics and
 * occupancy statistics as BoundedQueue, plus blocking push/pop with a
 * close() protocol so consumers can drain and exit cleanly.
 *
 * Storage is a fixed ring of `capacity` slots allocated once at
 * construction, so steady-state pushes and pops never touch the heap.
 * pushBatch() lands a whole batch under one lock acquisition, writing
 * each item straight into its slot.
 */

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/logging.h"

namespace caram::sim {

/** A mutex/condition-variable bounded ring FIFO, safe for concurrent
 *  use.  T must be default-constructible (the slots are). */
template <typename T>
class ConcurrentBoundedQueue
{
  public:
    explicit ConcurrentBoundedQueue(std::size_t capacity) : cap(capacity)
    {
        if (capacity == 0)
            fatal("queue capacity must be nonzero");
        slots = std::make_unique<T[]>(capacity);
    }

    ConcurrentBoundedQueue(const ConcurrentBoundedQueue &) = delete;
    ConcurrentBoundedQueue &operator=(const ConcurrentBoundedQueue &) =
        delete;

    /** Push if space is available; returns false (and counts a stall)
     *  when full or closed. */
    bool
    tryPush(T item)
    {
        {
            std::lock_guard<std::mutex> lock(m);
            if (isClosed || count >= cap) {
                ++stalls;
                return false;
            }
            landLocked() = std::move(item);
            notePushesLocked(1);
        }
        notEmpty.notify_one();
        return true;
    }

    /**
     * Push, blocking while the queue is full (backpressure).  Returns
     * false only when the queue was closed before space appeared.
     */
    bool
    push(T item)
    {
        {
            std::unique_lock<std::mutex> lock(m);
            if (!awaitSpaceLocked(lock))
                return false;
            landLocked() = std::move(item);
            notePushesLocked(1);
        }
        notEmpty.notify_one();
        return true;
    }

    /**
     * Push @p n items in order, blocking while the queue is full.
     * @p fill(T &slot) writes the next item straight into its ring slot
     * and is called exactly once per item pushed, under the queue lock.
     * The items land in segments -- as many as fit -- and @p landed()
     * runs without the lock after every segment: before the producer
     * blocks on a full queue, and after the last one.  A consumer that
     * parks on an external doorbell instead of this queue's own
     * condition variable (the engine's workers) must be rung there,
     * or a full queue would deadlock against it.  Returns the number
     * pushed: @p n, or fewer when the queue is closed mid-batch.
     */
    template <typename Fill, typename Landed>
    std::size_t
    pushBatch(std::size_t n, Fill &&fill, Landed &&landed)
    {
        std::size_t pushed = 0;
        while (pushed < n) {
            std::size_t segment = 0;
            {
                std::unique_lock<std::mutex> lock(m);
                if (!awaitSpaceLocked(lock))
                    break;
                segment = std::min(n - pushed, cap - count);
                for (std::size_t k = 0; k < segment; ++k)
                    fill(landLocked());
                notePushesLocked(segment);
            }
            pushed += segment;
            notEmpty.notify_all();
            landed();
        }
        return pushed;
    }

    /** Pop the head if present; never blocks. */
    std::optional<T>
    tryPop()
    {
        std::optional<T> out;
        {
            std::lock_guard<std::mutex> lock(m);
            if (count == 0)
                return std::nullopt;
            out.emplace(takeLocked());
        }
        notFull.notify_one();
        return out;
    }

    /**
     * Pop the head, blocking while the queue is empty.  Returns
     * std::nullopt only when the queue is closed and fully drained.
     */
    std::optional<T>
    pop()
    {
        std::optional<T> out;
        {
            std::unique_lock<std::mutex> lock(m);
            notEmpty.wait(lock, [&] { return isClosed || count > 0; });
            if (count == 0)
                return std::nullopt;
            out.emplace(takeLocked());
        }
        notFull.notify_one();
        return out;
    }

    /**
     * Pop up to @p max items into @p out (cleared first), blocking while
     * the queue is empty.  Amortizes one lock acquisition over the whole
     * batch.  Returns the number popped; 0 only when closed and drained.
     */
    std::size_t
    popBatch(std::vector<T> &out, std::size_t max)
    {
        out.clear();
        {
            std::unique_lock<std::mutex> lock(m);
            notEmpty.wait(lock, [&] { return isClosed || count > 0; });
            takeBatchLocked(out, max);
        }
        if (!out.empty())
            notFull.notify_all();
        return out.size();
    }

    /**
     * popBatch() without the blocking wait: pop up to @p max items into
     * @p out (cleared first) and return immediately.  Returns the
     * number popped -- 0 when the queue is currently empty, closed or
     * not.  Consumers multiplexing several queues (the engine's workers
     * poll their request queue *and* the shared fan-out task queue) use
     * this and park on an external doorbell instead of blocking here.
     */
    std::size_t
    tryPopBatch(std::vector<T> &out, std::size_t max)
    {
        out.clear();
        {
            std::lock_guard<std::mutex> lock(m);
            takeBatchLocked(out, max);
        }
        if (!out.empty())
            notFull.notify_all();
        return out.size();
    }

    /**
     * Close the queue: subsequent pushes fail, blocked producers and
     * consumers wake up, and pop() returns std::nullopt once the
     * remaining items are drained.
     */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(m);
            isClosed = true;
        }
        notEmpty.notify_all();
        notFull.notify_all();
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(m);
        return isClosed;
    }

    bool
    empty() const
    {
        std::lock_guard<std::mutex> lock(m);
        return count == 0;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(m);
        return count;
    }

    std::size_t capacity() const { return cap; }

    uint64_t
    totalPushes() const
    {
        std::lock_guard<std::mutex> lock(m);
        return pushes;
    }

    uint64_t
    totalStalls() const
    {
        std::lock_guard<std::mutex> lock(m);
        return stalls;
    }

    std::size_t
    peakOccupancy() const
    {
        std::lock_guard<std::mutex> lock(m);
        return peak;
    }

  private:
    /** Wait for a free slot (counting a stall if the producer has to
     *  block); false when the queue is closed. */
    bool
    awaitSpaceLocked(std::unique_lock<std::mutex> &lock)
    {
        if (count >= cap)
            ++stalls; // the producer is about to block
        notFull.wait(lock, [&] { return isClosed || count < cap; });
        return !isClosed;
    }

    /** Claim the tail slot (space must be available). */
    T &
    landLocked()
    {
        std::size_t tail = head + count;
        if (tail >= cap)
            tail -= cap;
        ++count;
        return slots[tail];
    }

    void
    notePushesLocked(std::size_t n)
    {
        pushes += n;
        peak = std::max(peak, count);
    }

    /** Move the head item out (the queue must be nonempty). */
    T
    takeLocked()
    {
        T out = std::move(slots[head]);
        if (++head == cap)
            head = 0;
        --count;
        return out;
    }

    void
    takeBatchLocked(std::vector<T> &out, std::size_t max)
    {
        while (count > 0 && out.size() < max)
            out.push_back(takeLocked());
    }

    mutable std::mutex m;
    std::condition_variable notEmpty;
    std::condition_variable notFull;
    std::unique_ptr<T[]> slots;
    std::size_t cap;
    std::size_t head = 0;  ///< slot of the oldest item
    std::size_t count = 0; ///< items in the ring
    bool isClosed = false;
    uint64_t pushes = 0;
    uint64_t stalls = 0;
    std::size_t peak = 0;
};

} // namespace caram::sim

#endif // CARAM_SIM_CONCURRENT_QUEUE_H_
