// Property and stress tests for the scalable synchronization library
// (src/proc/sync): mutual exclusion under randomized contender fuzz, MCS
// FIFO fairness, tournament-barrier correctness at power-of-two and odd
// party counts, bit-identical replay across host thread counts, and chaos
// runs under IPI-delay and link-latency fault injection (no lost wakeups,
// no stuck waiters).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "fault/fault.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "proc/openmp.h"
#include "proc/sync/sync.h"
#include "proc/threads.h"
#include "sim/executor.h"
#include "sim/parallel.h"
#include "sim/random.h"

namespace mk::proc::sync {
namespace {

using sim::Cycles;
using sim::Task;

struct Fixture {
  Fixture() : machine(exec, hw::Amd4x4()) {}
  sim::Executor exec;
  hw::Machine machine;
};

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ULL;
}

// ---------------------------------------------------------------------------
// Mutual exclusion under randomized contender fuzz.

struct CriticalProbe {
  int in = 0;
  int peak = 0;
  int total = 0;
};

Task<> McsFuzzWorker(hw::Machine& m, McsLock& lock, CriticalProbe& probe, int core,
                     int iters, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    co_await m.exec().Delay(rng.Below(600));
    co_await lock.Acquire(core);
    ++probe.in;
    probe.peak = std::max(probe.peak, probe.in);
    EXPECT_EQ(lock.holder(), core);
    co_await m.Compute(core, 40 + rng.Below(160));
    --probe.in;
    ++probe.total;
    co_await lock.Release(core);
  }
}

TEST(McsLock, MutualExclusionUnderContenderFuzz) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    Fixture f;
    sim::Rng shape(seed);
    const int contenders = static_cast<int>(2 + shape.Below(15));  // 2..16
    const int iters = static_cast<int>(2 + shape.Below(5));        // 2..6
    McsLock lock(f.machine);
    CriticalProbe probe;
    for (int c = 0; c < contenders; ++c) {
      f.exec.Spawn(McsFuzzWorker(f.machine, lock, probe, c, iters,
                                 seed * 1000 + static_cast<std::uint64_t>(c)));
    }
    f.exec.Run();
    EXPECT_EQ(probe.peak, 1) << "seed " << seed;
    EXPECT_EQ(probe.total, contenders * iters) << "seed " << seed;
    EXPECT_FALSE(lock.locked()) << "seed " << seed;
    EXPECT_TRUE(lock.queue_empty()) << "seed " << seed;
  }
}

Task<> TicketFuzzWorker(hw::Machine& m, TicketLock& lock, CriticalProbe& probe, int core,
                        int iters, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    co_await m.exec().Delay(rng.Below(600));
    co_await lock.Acquire(core);
    ++probe.in;
    probe.peak = std::max(probe.peak, probe.in);
    co_await m.Compute(core, 40 + rng.Below(160));
    --probe.in;
    ++probe.total;
    co_await lock.Release(core);
  }
}

TEST(TicketLock, MutualExclusionUnderContenderFuzz) {
  for (std::uint64_t seed : {7u, 17u, 27u}) {
    Fixture f;
    sim::Rng shape(seed);
    const int contenders = static_cast<int>(2 + shape.Below(15));
    const int iters = static_cast<int>(2 + shape.Below(5));
    TicketLock lock(f.machine);
    CriticalProbe probe;
    for (int c = 0; c < contenders; ++c) {
      f.exec.Spawn(TicketFuzzWorker(f.machine, lock, probe, c, iters,
                                    seed * 1000 + static_cast<std::uint64_t>(c)));
    }
    f.exec.Run();
    EXPECT_EQ(probe.peak, 1) << "seed " << seed;
    EXPECT_EQ(probe.total, contenders * iters) << "seed " << seed;
    EXPECT_FALSE(lock.locked()) << "seed " << seed;
    EXPECT_EQ(lock.tickets_issued(),
              static_cast<std::uint64_t>(contenders) * static_cast<std::uint64_t>(iters))
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// MCS FIFO fairness: acquisition order equals arrival (tail-swap) order.

Task<> StaggeredAcquirer(hw::Machine& m, McsLock& lock, int core, Cycles arrive_at,
                         Cycles hold, std::vector<int>& order) {
  co_await m.exec().Delay(arrive_at);
  co_await lock.Acquire(core);
  order.push_back(core);
  co_await m.Compute(core, hold);
  co_await lock.Release(core);
}

TEST(McsLock, FifoHandoffMatchesArrivalOrder) {
  Fixture f;
  McsLock lock(f.machine);
  std::vector<int> order;
  // Core 0 takes the lock and holds it long enough that every other core has
  // completed its tail swap (arrivals 5000 cycles apart dwarf the swap
  // latency); the queue must then drain in arrival order.
  for (int c = 0; c < 8; ++c) {
    f.exec.Spawn(StaggeredAcquirer(f.machine, lock, c,
                                   static_cast<Cycles>(c) * 5000,
                                   c == 0 ? 200'000 : 500, order));
  }
  f.exec.Run();
  ASSERT_EQ(order.size(), 8u);
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(order[static_cast<std::size_t>(c)], c);
  }
  EXPECT_EQ(lock.handoffs(), 7u);  // 7 queued handoffs, final release to empty
  EXPECT_TRUE(lock.queue_empty());
}

TEST(McsLock, FifoHoldsForShuffledArrivalOrder) {
  // Same property with a scrambled arrival permutation.
  const std::vector<int> arrival = {3, 6, 0, 7, 2, 5, 1, 4};
  Fixture f;
  McsLock lock(f.machine);
  std::vector<int> order;
  for (std::size_t pos = 0; pos < arrival.size(); ++pos) {
    const int core = arrival[pos];
    f.exec.Spawn(StaggeredAcquirer(f.machine, lock, core,
                                   static_cast<Cycles>(pos) * 5000 + 100,
                                   pos == 0 ? 200'000 : 500, order));
  }
  f.exec.Run();
  ASSERT_EQ(order.size(), arrival.size());
  EXPECT_EQ(order, arrival);
}

// ---------------------------------------------------------------------------
// Tournament barrier: nobody passes early, reusable across episodes, byes at
// non-power-of-two sizes.

Task<> BarrierEpisodeWorker(hw::Machine& m, TreeBarrier& bar, int party, int episodes,
                            std::vector<int>& arrived, std::vector<int>& failures,
                            std::uint64_t seed) {
  sim::Rng rng(seed);
  for (int e = 0; e < episodes; ++e) {
    co_await m.exec().Delay(rng.Below(900) + 1);
    ++arrived[static_cast<std::size_t>(e)];
    co_await bar.Arrive(party);
    // The barrier property: when any party exits episode e, every party has
    // arrived at episode e. (EXPECT_* inside coroutines would race the count
    // bookkeeping on failure paths; collect and assert after the run.)
    if (arrived[static_cast<std::size_t>(e)] != bar.parties()) {
      failures.push_back(e);
    }
  }
}

class TreeBarrierParties : public ::testing::TestWithParam<int> {};

TEST_P(TreeBarrierParties, NobodyPassesUntilAllArriveAcrossEpisodes) {
  const int parties = GetParam();
  const int episodes = 7;
  Fixture f;
  TreeBarrier bar(f.machine, parties);
  std::vector<int> arrived(episodes, 0);
  std::vector<int> failures;
  for (int p = 0; p < parties; ++p) {
    f.exec.Spawn(BarrierEpisodeWorker(f.machine, bar, p, episodes, arrived, failures,
                                      1000 + static_cast<std::uint64_t>(p)));
  }
  f.exec.Run();
  EXPECT_TRUE(failures.empty()) << failures.size() << " early exits, first at episode "
                                << failures.front();
  for (int e = 0; e < episodes; ++e) {
    EXPECT_EQ(arrived[static_cast<std::size_t>(e)], parties);
  }
  EXPECT_EQ(bar.generation(), static_cast<std::uint64_t>(episodes));
  EXPECT_TRUE(bar.idle());
}

INSTANTIATE_TEST_SUITE_P(PartyCounts, TreeBarrierParties,
                         ::testing::Values(2, 3, 5, 8, 11, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "parties" + std::to_string(info.param);
                         });

TEST(TreeBarrier, HoldsBackEveryoneUntilTheLastArrives) {
  Fixture f;
  TreeBarrier bar(f.machine, 8);
  int passed = 0;
  for (int p = 0; p < 8; ++p) {
    f.exec.Spawn([](hw::Machine& m, TreeBarrier& b, int party, int& done) -> Task<> {
      co_await m.exec().Delay(party == 5 ? 90'000 : 100 + static_cast<Cycles>(party));
      co_await b.Arrive(party);
      ++done;
    }(f.machine, bar, p, passed));
  }
  f.exec.RunUntil(80'000);
  EXPECT_EQ(passed, 0);  // seven wait on the straggler
  EXPECT_FALSE(bar.idle());
  f.exec.Run();
  EXPECT_EQ(passed, 8);
  EXPECT_TRUE(bar.idle());
}

TEST(TreeBarrier, PartyOfCoreMapsTeamCores) {
  Fixture f;
  TreeBarrier bar(f.machine, 3, {4, 9, 14});
  EXPECT_EQ(bar.PartyOfCore(4), 0);
  EXPECT_EQ(bar.PartyOfCore(9), 1);
  EXPECT_EQ(bar.PartyOfCore(14), 2);
}

// ---------------------------------------------------------------------------
// The proc::Barrier / proc::Mutex facades select the scalable primitives.

TEST(ScalableFacade, BarrierMeetsCentralizedContract) {
  Fixture f;
  Barrier barrier(f.machine, 3, SyncFlavor::kScalable);
  std::vector<int> order;
  for (int c = 0; c < 3; ++c) {
    f.exec.Spawn([](hw::Machine& m, Barrier& b, int core, std::vector<int>& out) -> Task<> {
      co_await m.exec().Delay(core == 2 ? 90'000 : 100);
      co_await b.Arrive(core);
      out.push_back(core);
    }(f.machine, barrier, c, order));
  }
  f.exec.RunUntil(80'000);
  EXPECT_TRUE(order.empty());
  f.exec.Run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(ScalableFacade, MutexProvidesMutualExclusion) {
  Fixture f;
  Mutex mutex(f.machine, SyncFlavor::kScalable);
  CriticalProbe probe;
  for (int c = 0; c < 8; ++c) {
    f.exec.Spawn([](hw::Machine& m, Mutex& mu, CriticalProbe& pr, int core) -> Task<> {
      for (int i = 0; i < 5; ++i) {
        co_await mu.Lock(core);
        ++pr.in;
        pr.peak = std::max(pr.peak, pr.in);
        co_await m.exec().Delay(200);
        --pr.in;
        ++pr.total;
        co_await mu.Unlock(core);
      }
    }(f.machine, mutex, probe, c));
  }
  f.exec.Run();
  EXPECT_EQ(probe.peak, 1);
  EXPECT_EQ(probe.total, 40);
  EXPECT_FALSE(mutex.locked());
}

TEST(ScalableFacade, OmpTeamRunsFigureNineShapedLoop) {
  // An OmpRuntime over the scalable flavor: parallel-for with reductions,
  // exactly the Figure 9 workload shape.
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd4x4());
  std::vector<int> cores;
  for (int i = 0; i < 6; ++i) {
    cores.push_back(i);
  }
  OmpRuntime omp(machine, std::move(cores), SyncFlavor::kScalable);
  std::vector<int> hits(120, 0);
  exec.Spawn([](OmpRuntime& o, std::vector<int>& h) -> Task<> {
    for (int iter = 0; iter < 3; ++iter) {
      co_await o.ParallelFor(120, [&h, &o](int, int core, std::int64_t b,
                                           std::int64_t e) -> Task<> {
        for (std::int64_t i = b; i < e; ++i) {
          ++h[static_cast<std::size_t>(i)];
        }
        co_await o.ReduceContribution(core);
      });
    }
  }(omp, hits));
  exec.Run();
  for (int h : hits) {
    EXPECT_EQ(h, 3);
  }
}

// ---------------------------------------------------------------------------
// Same-seed replay: the whole sync fuzz must be bit-identical at any host
// thread count (4 independent machine domains under the parallel engine).

struct ReplayWorld {
  explicit ReplayWorld(sim::Executor& exec)
      : machine(exec, hw::Amd4x4()), mcs(machine), ticket(machine), bar(machine, 8) {}
  hw::Machine machine;
  McsLock mcs;
  TicketLock ticket;
  TreeBarrier bar;
  std::vector<std::uint64_t> log;
};

Task<> ReplayWorker(ReplayWorld& w, int core, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (int it = 0; it < 5; ++it) {
    co_await w.machine.exec().Delay(rng.Below(500));
    co_await w.mcs.Acquire(core);
    w.log.push_back(Mix(w.machine.exec().now(), static_cast<std::uint64_t>(core) * 2 + 1));
    co_await w.machine.Compute(core, 40 + rng.Below(120));
    co_await w.mcs.Release(core);
    co_await w.ticket.Acquire(core);
    w.log.push_back(Mix(w.machine.exec().now(), static_cast<std::uint64_t>(core) * 2));
    co_await w.ticket.Release(core);
    co_await w.bar.Arrive(core);
    w.log.push_back(Mix(w.machine.exec().now(), w.bar.generation()));
  }
}

std::vector<std::vector<std::uint64_t>> RunReplay(int host_threads) {
  sim::ParallelEngine::Options opts;
  opts.domains = 4;
  opts.threads = host_threads;
  sim::ParallelEngine engine(opts);
  std::vector<std::unique_ptr<ReplayWorld>> worlds;
  for (int d = 0; d < 4; ++d) {
    worlds.push_back(std::make_unique<ReplayWorld>(engine.domain(d)));
    for (int core = 0; core < 8; ++core) {
      engine.domain(d).Spawn(ReplayWorker(
          *worlds.back(), core,
          sim::DeriveStreamSeed(0x51bc, d * 8 + core)));
    }
  }
  engine.Run();
  std::vector<std::vector<std::uint64_t>> logs;
  for (auto& w : worlds) {
    EXPECT_TRUE(w->mcs.queue_empty());
    EXPECT_TRUE(w->bar.idle());
    logs.push_back(std::move(w->log));
  }
  return logs;
}

TEST(SyncReplay, BitIdenticalAcrossHostThreadCounts) {
  const auto base = RunReplay(1);
  for (const auto& log : base) {
    EXPECT_EQ(log.size(), 8u * 5u * 3u);  // every op of every worker logged
  }
  EXPECT_EQ(RunReplay(2), base);
  EXPECT_EQ(RunReplay(4), base);
}

// ---------------------------------------------------------------------------
// Chaos: MCS lock + tree barrier under IPI delay spikes and interconnect
// latency faults. The primitives never lose a wakeup or strand a waiter —
// the run completes with drained queues — and the plan's every spec fires.

struct ScopedInjector {
  explicit ScopedInjector(const fault::FaultPlan& plan) : inj(plan) { inj.Install(); }
  ~ScopedInjector() { inj.Uninstall(); }
  fault::Injector inj;
};

Task<> ChaosWorker(hw::Machine& m, McsLock& lock, TreeBarrier& bar, int core,
                   int episodes, int& completed, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (int e = 0; e < episodes; ++e) {
    co_await m.exec().Delay(rng.Below(700));
    co_await lock.Acquire(core);
    co_await m.Compute(core, 60 + rng.Below(90));
    co_await lock.Release(core);
    co_await bar.Arrive(core);
  }
  ++completed;
}

Task<> ChaosIpiPinger(hw::Machine& m, int pings) {
  for (int i = 0; i < pings; ++i) {
    co_await m.ipi().Send(0, 1 + i % (m.num_cores() - 1), /*vector=*/0x31,
                          static_cast<std::uint64_t>(i));
    co_await m.exec().Delay(2'500);
  }
}

Cycles RunChaosWorld(bool with_faults) {
  fault::FaultPlan plan;
  plan.DelayIpi(-1, -1, /*extra=*/1'200, /*at=*/0);
  plan.LinkSpike(/*extra=*/450, /*at=*/0, /*until=*/sim::kForever);
  std::unique_ptr<ScopedInjector> injector;
  if (with_faults) {
    injector = std::make_unique<ScopedInjector>(plan);
  }

  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd4x4());
  for (int c = 0; c < machine.num_cores(); ++c) {
    machine.ipi().SetHandler(c, [](int, std::uint64_t) {});
  }
  McsLock lock(machine);
  TreeBarrier bar(machine, 16);
  const int episodes = 12;
  int completed = 0;
  for (int c = 0; c < 16; ++c) {
    exec.Spawn(ChaosWorker(machine, lock, bar, c, episodes, completed,
                           0xc4a05 + static_cast<std::uint64_t>(c)));
  }
  exec.Spawn(ChaosIpiPinger(machine, 24));
  const Cycles end = exec.Run();

  EXPECT_EQ(completed, 16) << "stuck waiter: a worker never finished";
  EXPECT_TRUE(lock.queue_empty()) << "lost handoff: tail still points at a waiter";
  EXPECT_FALSE(lock.locked());
  EXPECT_TRUE(bar.idle()) << "lost wakeup: a party is still inside Arrive";
  EXPECT_EQ(bar.generation(), static_cast<std::uint64_t>(episodes));
  if (with_faults) {
    EXPECT_TRUE(injector->inj.AllSpecsActivated())
        << "a fault spec never fired - the chaos run did not exercise it";
    EXPECT_GT(injector->inj.injected(fault::FaultKind::kIpiDelay), 0u);
  }
  return end;
}

TEST(SyncChaos, NoLostWakeupsUnderIpiAndLinkFaults) {
  const Cycles clean = RunChaosWorld(false);
  const Cycles faulted = RunChaosWorld(true);
  // The spikes must actually perturb the run, not vacuously pass.
  EXPECT_GT(faulted, clean);
}

TEST(SyncChaos, RepeatedFaultedRunsAreDeterministic) {
  const Cycles a = RunChaosWorld(true);
  const Cycles b = RunChaosWorld(true);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mk::proc::sync
