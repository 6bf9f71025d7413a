/** @file Tests for sim::ConcurrentBoundedQueue (including MPMC stress). */

#include "sim/concurrent_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace caram::sim {
namespace {

TEST(ConcurrentQueue, RejectsZeroCapacity)
{
    EXPECT_THROW(ConcurrentBoundedQueue<int> q(0), caram::FatalError);
}

TEST(ConcurrentQueue, FifoOrderAndOccupancy)
{
    ConcurrentBoundedQueue<int> q(4);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(q.tryPush(i));
    EXPECT_EQ(q.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        auto v = q.pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_TRUE(q.empty());
}

TEST(ConcurrentQueue, TryPushBackpressureCountsStalls)
{
    ConcurrentBoundedQueue<int> q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3));
    EXPECT_FALSE(q.tryPush(4));
    EXPECT_EQ(q.totalPushes(), 2u);
    EXPECT_EQ(q.totalStalls(), 2u);
    EXPECT_EQ(q.peakOccupancy(), 2u);
}

TEST(ConcurrentQueue, BlockingPushWaitsForSpace)
{
    ConcurrentBoundedQueue<int> q(1);
    ASSERT_TRUE(q.tryPush(1));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(2)); // blocks until the consumer pops
        pushed = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(q.pop().value(), 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(q.pop().value(), 2);
}

TEST(ConcurrentQueue, CloseDrainsThenSignalsEnd)
{
    ConcurrentBoundedQueue<int> q(4);
    q.tryPush(1);
    q.tryPush(2);
    q.close();
    EXPECT_FALSE(q.tryPush(3)); // closed: pushes fail
    EXPECT_FALSE(q.push(4));
    EXPECT_EQ(q.pop().value(), 1); // remaining items still drain
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_FALSE(q.pop().has_value()); // then the end marker
}

TEST(ConcurrentQueue, CloseWakesBlockedConsumer)
{
    ConcurrentBoundedQueue<int> q(4);
    std::thread consumer([&] {
        EXPECT_FALSE(q.pop().has_value()); // blocked, then woken empty
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    consumer.join();
}

TEST(ConcurrentQueue, PopBatchAmortizesLocking)
{
    ConcurrentBoundedQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.tryPush(i);
    std::vector<int> batch;
    EXPECT_EQ(q.popBatch(batch, 4), 4u);
    EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(q.popBatch(batch, 4), 2u);
    EXPECT_EQ(batch, (std::vector<int>{4, 5}));
    q.close();
    EXPECT_EQ(q.popBatch(batch, 4), 0u);
}

TEST(ConcurrentQueue, PopBatchDrainsAfterClose)
{
    // Items pushed before close() are still delivered: a worker looping
    // on popBatch() must not lose the tail when stop() closes its queue.
    ConcurrentBoundedQueue<int> q(4);
    q.tryPush(7);
    q.tryPush(8);
    q.close();
    std::vector<int> batch;
    EXPECT_EQ(q.popBatch(batch, 8), 2u);
    EXPECT_EQ(batch, (std::vector<int>{7, 8}));
    EXPECT_EQ(q.popBatch(batch, 8), 0u);
}

TEST(ConcurrentQueue, PushBatchKeepsOrderAcrossTheRingWrap)
{
    // Move the ring's head first, so the batch wraps past the last slot.
    ConcurrentBoundedQueue<int> q(5);
    ASSERT_TRUE(q.tryPush(-1));
    ASSERT_TRUE(q.tryPush(-2));
    ASSERT_EQ(q.pop().value(), -1);
    ASSERT_EQ(q.pop().value(), -2);
    int next = 0;
    EXPECT_EQ(q.pushBatch(5, [&](int &slot) { slot = next++; }), 5u);
    EXPECT_EQ(q.totalPushes(), 7u);
    EXPECT_EQ(q.peakOccupancy(), 5u);
    EXPECT_EQ(q.totalStalls(), 0u); // it all fit: one segment
    std::vector<int> batch;
    EXPECT_EQ(q.popBatch(batch, 8), 5u);
    EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ConcurrentQueue, PushBatchBlocksWhenFull)
{
    // 20 items through 4 slots: the first segment fills the queue, the
    // producer blocks until a consumer makes room, and every item
    // arrives exactly once, in order.
    ConcurrentBoundedQueue<int> q(4);
    std::thread producer([&] {
        int next = 0;
        EXPECT_EQ(q.pushBatch(20, [&](int &slot) { slot = next++; }), 20u);
    });
    while (q.size() < 4)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(q.size(), 4u); // blocked: no second segment yet
    std::vector<int> seen;
    std::vector<int> batch;
    while (seen.size() < 20) {
        q.popBatch(batch, 3);
        seen.insert(seen.end(), batch.begin(), batch.end());
    }
    producer.join();
    std::vector<int> want(20);
    for (int i = 0; i < 20; ++i)
        want[i] = i;
    EXPECT_EQ(seen, want);
    EXPECT_GE(q.totalStalls(), 1u);
    EXPECT_EQ(q.totalPushes(), 20u);
}

TEST(ConcurrentQueue, PushBatchReturnsCountPushedWhenClosedMidBatch)
{
    ConcurrentBoundedQueue<int> q(4);
    std::size_t pushed = 0;
    std::thread producer([&] {
        int next = 0;
        pushed = q.pushBatch(10, [&](int &slot) { slot = next++; });
    });
    // Close once the first segment landed: the producer is blocked on
    // the full queue (or about to be) and must give up there.
    while (q.size() < 4)
        std::this_thread::yield();
    q.close();
    producer.join();
    EXPECT_EQ(pushed, 4u);
    // What landed still drains; a closed queue takes no new batch.
    std::vector<int> batch;
    EXPECT_EQ(q.popBatch(batch, 8), 4u);
    EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(q.pushBatch(3, [](int &slot) { slot = 9; }), 0u);
}

TEST(ConcurrentQueue, MultiProducerMultiConsumerStress)
{
    // 4 producers x 3 consumers through a deliberately tiny queue so
    // both full- and empty-side blocking paths are exercised.
    constexpr int kProducers = 4;
    constexpr int kConsumers = 3;
    constexpr uint64_t kPerProducer = 5000;
    ConcurrentBoundedQueue<uint64_t> q(8);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (uint64_t i = 0; i < kPerProducer; ++i)
                ASSERT_TRUE(q.push(p * kPerProducer + i));
        });
    }

    std::mutex seen_mutex;
    std::vector<uint64_t> seen;
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            std::vector<uint64_t> local;
            while (auto v = q.pop())
                local.push_back(*v);
            std::lock_guard<std::mutex> lock(seen_mutex);
            seen.insert(seen.end(), local.begin(), local.end());
        });
    }

    for (auto &t : producers)
        t.join();
    q.close();
    for (auto &t : consumers)
        t.join();

    // Every element delivered exactly once.
    ASSERT_EQ(seen.size(), kProducers * kPerProducer);
    std::sort(seen.begin(), seen.end());
    for (uint64_t i = 0; i < seen.size(); ++i)
        ASSERT_EQ(seen[i], i);
    EXPECT_EQ(q.totalPushes(), kProducers * kPerProducer);
}

} // namespace
} // namespace caram::sim
