// Tests for the discrete-event simulation substrate: executor, tasks,
// synchronization primitives, RNG, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event.h"
#include "sim/executor.h"
#include "sim/inline_callback.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::sim {
namespace {

TEST(Types, LineBaseRoundsDown) {
  EXPECT_EQ(LineBase(0), 0u);
  EXPECT_EQ(LineBase(63), 0u);
  EXPECT_EQ(LineBase(64), 64u);
  EXPECT_EQ(LineBase(130), 128u);
}

TEST(Types, LinesCoveringCountsSpannedLines) {
  EXPECT_EQ(LinesCovering(0, 0), 0u);
  EXPECT_EQ(LinesCovering(0, 1), 1u);
  EXPECT_EQ(LinesCovering(0, 64), 1u);
  EXPECT_EQ(LinesCovering(0, 65), 2u);
  EXPECT_EQ(LinesCovering(60, 8), 2u);    // straddles a boundary
  EXPECT_EQ(LinesCovering(64, 128), 2u);
  EXPECT_EQ(LinesCovering(1000, 1000), LinesCovering(1000 % 64, 1000));
}

TEST(Executor, DelayAdvancesClock) {
  Executor exec;
  Cycles observed = 0;
  exec.Spawn([](Executor& e, Cycles& out) -> Task<> {
    co_await e.Delay(100);
    co_await e.Delay(23);
    out = e.now();
  }(exec, observed));
  exec.Run();
  EXPECT_EQ(observed, 123u);
  EXPECT_EQ(exec.live_tasks(), 0u);
}

TEST(Executor, EventsRunInTimeOrderWithFifoTies) {
  Executor exec;
  std::vector<int> order;
  exec.CallAt(50, [&] { order.push_back(2); });
  exec.CallAt(10, [&] { order.push_back(1); });
  exec.CallAt(50, [&] { order.push_back(3); });  // same time: FIFO by insertion
  exec.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Executor, NestedTaskReturnsValueWithoutExtraTime) {
  Executor exec;
  Cycles result = 0;
  Cycles when = 0;
  auto inner = [](Executor& e) -> Task<Cycles> {
    co_await e.Delay(7);
    co_return 42;
  };
  exec.Spawn([](Executor& e, decltype(inner)& in, Cycles& res, Cycles& at) -> Task<> {
    res = co_await in(e);
    at = e.now();
  }(exec, inner, result, when));
  exec.Run();
  EXPECT_EQ(result, 42u);
  EXPECT_EQ(when, 7u);
}

TEST(Executor, RunUntilStopsAtDeadline) {
  Executor exec;
  int fired = 0;
  exec.CallAt(10, [&] { ++fired; });
  exec.CallAt(20, [&] { ++fired; });
  EXPECT_TRUE(exec.RunUntil(15));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(exec.now(), 15u);
  EXPECT_FALSE(exec.RunUntil(30));
  EXPECT_EQ(fired, 2);
}

TEST(Executor, SpawnedTasksCountedUntilCompletion) {
  Executor exec;
  exec.Spawn([](Executor& e) -> Task<> { co_await e.Delay(5); }(exec));
  exec.Spawn([](Executor& e) -> Task<> { co_await e.Delay(50); }(exec));
  EXPECT_EQ(exec.live_tasks(), 2u);
  exec.RunUntil(10);
  EXPECT_EQ(exec.live_tasks(), 1u);
  exec.Run();
  EXPECT_EQ(exec.live_tasks(), 0u);
}

TEST(Executor, FarFutureEventsRunInTimeOrder) {
  Executor exec;
  std::vector<int> order;
  // All far beyond the near window from time 0; reverse insertion order.
  exec.CallAt(50000, [&] { order.push_back(3); });
  exec.CallAt(5000, [&] { order.push_back(2); });
  exec.CallAt(5, [&] { order.push_back(1); });
  EXPECT_EQ(exec.Run(), 50000u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Executor, FarFutureTiesRunInInsertionOrder) {
  Executor exec;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    exec.CallAt(100000, [&order, i] { order.push_back(i); });
  }
  exec.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Executor, MigratedFarEventPrecedesLaterSameCyclePush) {
  Executor exec;
  std::vector<char> order;
  // A targets cycle 1500 from time 0 (far tier). The cycle-600 event then
  // schedules B for the same cycle 1500 (near tier by then). A was inserted
  // first and must dispatch first.
  exec.CallAt(1500, [&order] { order.push_back('A'); });
  exec.CallAt(600, [&exec, &order] {
    exec.CallAt(1500, [&order] { order.push_back('B'); });
  });
  exec.Run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
}

TEST(Executor, DelayBeyondNearWindowResumesExactly) {
  Executor exec;
  const Cycles far = Executor::kNearWindow * 5 + 3;
  Cycles resumed = 0;
  exec.Spawn([](Executor& e, Cycles d, Cycles& out) -> Task<> {
    co_await e.Delay(d);
    out = e.now();
  }(exec, far, resumed));
  exec.Run();
  EXPECT_EQ(resumed, far);
}

TEST(Executor, RunUntilAcrossEmptyWindows) {
  Executor exec;
  int fired = 0;
  exec.CallAt(Executor::kNearWindow * 3, [&] { ++fired; });
  EXPECT_TRUE(exec.RunUntil(10));  // nothing due yet; the event survives
  EXPECT_EQ(exec.now(), 10u);
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(exec.RunUntil(Executor::kNearWindow * 4));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(exec.now(), Executor::kNearWindow * 4);
}

// Destroying an executor frees every queued callback exactly once, whichever
// tier holds it and whether it is stored inline or on the heap.
TEST(Executor, DestructionFreesEveryPendingCallbackOnce) {
  struct Counted {
    int* live;
    explicit Counted(int* l) : live(l) { ++*live; }
    Counted(const Counted& other) : live(other.live) { ++*live; }
    ~Counted() { --*live; }
  };
  const std::array<char, InlineCallback::kInlineBytes> big{};  // forces the heap fallback
  int live = 0;
  {
    Executor exec;
    exec.CallAt(5, [c = Counted(&live)] {});
    exec.CallAt(6, [c = Counted(&live), big] {});
    exec.CallAt(Executor::kNearWindow * 3, [c = Counted(&live)] {});
    exec.CallAt(Executor::kNearWindow * 4, [c = Counted(&live), big] {});
    EXPECT_EQ(live, 4);
    EXPECT_TRUE(exec.RunUntil(10));  // dispatches and frees the near pair
    EXPECT_EQ(live, 2);
    exec.CallAt(20, [c = Counted(&live), big] {});  // a near one, pending again
    EXPECT_EQ(live, 3);
    EXPECT_EQ(exec.pending_events(), 3u);
  }
  EXPECT_EQ(live, 0);
}

// Far callbacks with full 56-byte captures survive heap sifts and migration
// into the near ring intact, and dispatch in (time, insertion) order.
TEST(Executor, FullFarCallbacksDispatchIntactInTimeThenInsertionOrder) {
  struct Log {
    Executor* exec;
    std::vector<std::array<std::uint64_t, 7>> rows;  // now() + the six words
  };
  Executor exec;
  Log log{&exec, {}};
  constexpr std::uint64_t kEvents = 64;
  std::vector<std::pair<Cycles, std::uint64_t>> expected;  // (time, insertion index)
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    // Scrambled times beyond the near window, with ties among them.
    const Cycles at = Executor::kNearWindow + (i * 37 % 13) * 1500;
    std::array<std::uint64_t, 6> words{};
    for (std::uint64_t w = 0; w < words.size(); ++w) {
      words[w] = (i << 32) | (at + w);
    }
    auto cb = [&log, words] {
      std::array<std::uint64_t, 7> row{};
      row[0] = log.exec->now();
      std::copy(words.begin(), words.end(), row.begin() + 1);
      log.rows.push_back(row);
    };
    static_assert(sizeof(cb) == InlineCallback::kInlineBytes);
    exec.CallAt(at, std::move(cb));
    expected.emplace_back(at, i);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  exec.Run();
  ASSERT_EQ(log.rows.size(), kEvents);
  for (std::size_t k = 0; k < kEvents; ++k) {
    const auto& [at, i] = expected[k];
    EXPECT_EQ(log.rows[k][0], at) << "dispatch " << k;
    for (std::uint64_t w = 0; w < 6; ++w) {
      EXPECT_EQ(log.rows[k][w + 1], (i << 32) | (at + w)) << "dispatch " << k << " word " << w;
    }
  }
}

// Event-count regression: the executor dispatches exactly one event per
// resumption — K tasks each awaiting n delays is exactly K*n events, with
// no hidden polling, re-queuing, or bookkeeping events. A queue rewrite
// that changes this count changes the engine's cost model; update the
// arithmetic here only with a written justification.
TEST(Executor, EventCountPinnedForDelayGrid) {
  Executor exec;
  constexpr std::uint64_t kTasks = 7;
  constexpr std::uint64_t kDelays = 50;
  for (std::uint64_t t = 0; t < kTasks; ++t) {
    exec.Spawn([](Executor& e, std::uint64_t id, std::uint64_t n) -> Task<> {
      for (std::uint64_t i = 0; i < n; ++i) {
        // Mixed horizons: some delays stay near, some cross into the far
        // tier; the count must not depend on which tier served them.
        co_await e.Delay(1 + (id * 37 + i * 211) % (2 * Executor::kNearWindow));
      }
    }(exec, t, kDelays));
  }
  exec.Run();
  EXPECT_EQ(exec.events_dispatched(), kTasks * kDelays);
  EXPECT_EQ(exec.live_tasks(), 0u);
}

TEST(Executor, TaskExceptionPropagatesToAwaiter) {
  Executor exec;
  bool caught = false;
  auto thrower = []() -> Task<> {
    throw std::runtime_error("boom");
    co_return;  // unreachable; makes this a coroutine
  };
  exec.Spawn([](decltype(thrower)& th, bool& c) -> Task<> {
    try {
      co_await th();
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(thrower, caught));
  exec.Run();
  EXPECT_TRUE(caught);
}

TEST(Event, SignalWakesAllCurrentWaiters) {
  Executor exec;
  Event event(exec);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    exec.Spawn([](Event& ev, int& w) -> Task<> {
      co_await ev.Wait();
      ++w;
    }(event, woken));
  }
  exec.CallAt(10, [&] { event.Signal(); });
  exec.Run();
  EXPECT_EQ(woken, 3);
}

TEST(Event, SignalOneWakesOldestOnly) {
  Executor exec;
  Event event(exec);
  std::vector<int> woken;
  for (int i = 0; i < 3; ++i) {
    exec.Spawn([](Event& ev, std::vector<int>& w, int id) -> Task<> {
      co_await ev.Wait();
      w.push_back(id);
    }(event, woken, i));
  }
  exec.CallAt(10, [&] { event.SignalOne(); });
  exec.Run();
  EXPECT_EQ(woken, (std::vector<int>{0}));
  EXPECT_EQ(event.waiter_count(), 2u);
}

TEST(Event, WaitTimeoutForeverArmsNoTimer) {
  for (Cycles bound : {kForever, Cycles{1000}}) {
    Executor exec;
    Event event(exec);
    bool signaled = false;
    std::size_t pending_while_waiting = 99;
    exec.Spawn([](Event& ev, Cycles b, bool& out) -> Task<> {
      out = co_await ev.WaitTimeout(b);
    }(event, bound, signaled));
    exec.CallAt(10, [&] {
      pending_while_waiting = exec.pending_events();
      event.Signal();
    });
    exec.Run();
    EXPECT_TRUE(signaled) << "bound " << bound;
    // Only a finite bound leaves its timer behind while the task waits.
    EXPECT_EQ(pending_while_waiting, bound == kForever ? 0u : 1u) << "bound " << bound;
    EXPECT_EQ(exec.live_tasks(), 0u);
  }
}

TEST(Semaphore, LimitsConcurrencyFifo) {
  Executor exec;
  Semaphore sem(exec, 1);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    exec.Spawn([](Executor& e, Semaphore& s, std::vector<int>& ord, int id) -> Task<> {
      co_await s.Acquire();
      ord.push_back(id);
      co_await e.Delay(10);
      s.Release();
    }(exec, sem, order, i));
  }
  exec.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(exec.now(), 30u);  // fully serialized
}

TEST(FifoResource, QueuesArrivalsFifo) {
  FifoResource r;
  EXPECT_EQ(r.ReserveAt(0, 10), 10u);
  EXPECT_EQ(r.ReserveAt(0, 10), 20u);   // queued behind the first
  EXPECT_EQ(r.ReserveAt(100, 10), 110u);  // idle gap: starts at arrival
  EXPECT_EQ(r.transactions(), 3u);
  EXPECT_EQ(r.total_busy(), 30u);
}

TEST(FifoResource, UtilizationOverHorizon) {
  FifoResource r;
  r.ReserveAt(0, 25);
  EXPECT_DOUBLE_EQ(r.Utilization(100), 0.25);
  EXPECT_DOUBLE_EQ(r.Utilization(0), 0.0);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
    auto v = rng.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(1234);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(RunningStat, MeanAndStddev) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Histogram, PercentileApproximation) {
  Histogram h(0, 100, 100);
  for (int i = 0; i < 100; ++i) {
    h.Add(i);
  }
  EXPECT_NEAR(h.Percentile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.Percentile(0.9), 90.0, 2.0);
}

// Regression: samples below the range floor used to land in bucket 0 (the
// [lo, lo+width) bucket) and masquerade as legitimate low samples. They must
// go to a dedicated underflow bucket that never inflates in-range buckets.
TEST(Histogram, UnderflowDoesNotConflateWithFirstBucket) {
  Histogram h(100, 200, 10);
  h.Add(-5);   // far below the floor
  h.Add(50);   // below the floor
  h.Add(100);  // exactly the floor: first real bucket
  h.Add(105);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.overflow(), 0u);
  // counts() layout: [underflow, bucket 0..N-1, overflow].
  ASSERT_EQ(h.buckets().size(), 12u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 2u);  // the two in-range samples, unpolluted
  h.Add(250);  // above the ceiling
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.buckets().back(), 1u);
  // Percentile walks underflow first and reports the range floor for it.
  Histogram low(100, 200, 10);
  for (int i = 0; i < 10; ++i) {
    low.Add(0);
  }
  EXPECT_DOUBLE_EQ(low.Percentile(0.5), 100.0);
}

}  // namespace
}  // namespace mk::sim
