// BoundedQueue: capacity, rejected-push ownership, close/drain semantics,
// and a small MPSC hand-off smoke.
#include "util/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <thread>
#include <vector>

namespace tc::util {
namespace {

TEST(BoundedQueue, PushPopFifo) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(int{i}));
  EXPECT_EQ(q.depth(), 4u);
  for (int i = 0; i < 4; ++i) {
    const auto item = q.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_EQ(q.depth(), 0u);
}

TEST(BoundedQueue, FullQueueRejectsWithoutConsuming) {
  BoundedQueue<std::unique_ptr<int>> q(1);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(1)));
  auto rejected = std::make_unique<int>(2);
  EXPECT_FALSE(q.try_push(std::move(rejected)));
  // The caller still owns a rejected item — the fleet's shed path must
  // answer the client the item carries.
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(*rejected, 2);
}

TEST(BoundedQueue, CloseDrainsThenSignalsExit) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.try_push(7));
  EXPECT_TRUE(q.try_push(8));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_push(9));  // closed queue rejects new work
  EXPECT_EQ(q.pop(), std::optional<int>(7));
  EXPECT_EQ(q.pop(), std::optional<int>(8));
  EXPECT_EQ(q.pop(), std::nullopt);  // drained + closed => consumer exits
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(2);
  std::thread consumer([&q] { EXPECT_EQ(q.pop(), std::nullopt); });
  q.close();
  consumer.join();
}

TEST(BoundedQueue, TryPopNDrainsFifoInBatches) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(q.try_push(int{i}));
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_n(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  // Appends to the caller's buffer and returns only what was available.
  EXPECT_EQ(q.try_pop_n(out, 4), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(q.try_pop_n(out, 4), 0u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(BoundedQueue, TryPopNZeroMaxIsANoop) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_n(out, 0), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(q.depth(), 1u);
}

TEST(BoundedQueue, TryPopNDrainsAcrossClose) {
  // A worker draining its mailbox at shutdown: close() must not strand
  // already-admitted items, and the drained batch keeps FIFO order.
  BoundedQueue<std::unique_ptr<int>> q(4);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(10)));
  EXPECT_TRUE(q.try_push(std::make_unique<int>(11)));
  q.close();
  std::vector<std::unique_ptr<int>> out;
  EXPECT_EQ(q.try_pop_n(out, 8), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(*out[0], 10);
  EXPECT_EQ(*out[1], 11);
  // Drained + closed: further batch pops report empty, matching pop()'s
  // nullopt exit signal.
  EXPECT_EQ(q.try_pop_n(out, 8), 0u);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, MultiProducerHandoff) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  BoundedQueue<int> q(16);
  long long sum = 0;
  std::thread consumer([&] {
    while (auto item = q.pop()) sum += *item;
  });
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int value = p * kPerProducer + i;
        while (!q.try_push(std::move(value))) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  consumer.join();
  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

}  // namespace
}  // namespace tc::util
