// Tests for the parallel discrete-event engine (sim/parallel.h): epoch
// planning, conservative lookahead, cross-domain mailbox semantics, and the
// central promise that host thread count never changes a schedule.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/domain.h"
#include "sim/executor.h"
#include "sim/parallel.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::sim {
namespace {

// ---------------------------------------------------------------------------
// Single-domain engine == plain Executor.

Task<> TickTask(Executor& exec, int n, Cycles step, std::vector<Cycles>& out) {
  for (int i = 0; i < n; ++i) {
    co_await exec.Delay(step);
    out.push_back(exec.now());
  }
}

TEST(ParallelEngine, SingleDomainMatchesPlainExecutor) {
  std::vector<Cycles> plain;
  Executor exec;
  exec.Spawn(TickTask(exec, 5, 70, plain));
  const Cycles plain_end = exec.Run();
  const std::uint64_t plain_events = exec.events_dispatched();

  ParallelEngine::Options opts;
  opts.domains = 1;
  ParallelEngine eng(opts);
  std::vector<Cycles> engined;
  eng.domain(0).Spawn(TickTask(eng.domain(0), 5, 70, engined));
  const Cycles eng_end = eng.Run();

  EXPECT_EQ(plain, engined);
  EXPECT_EQ(plain_end, eng_end);
  EXPECT_EQ(plain_events, eng.events_dispatched());
  EXPECT_EQ(eng.epochs(), 0u);  // single domain short-circuits: no epochs
}

// ---------------------------------------------------------------------------
// Lookahead derivation.

TEST(ParallelEngine, LookaheadIsMinRegisteredLinkLatency) {
  ParallelEngine::Options opts;
  opts.domains = 3;
  ParallelEngine eng(opts);
  EXPECT_EQ(eng.lookahead(), ParallelEngine::kMaxLookahead);
  eng.Link(0, 1, 700);
  EXPECT_EQ(eng.lookahead(), 700u);
  eng.Link(1, 2, 300);
  EXPECT_EQ(eng.lookahead(), 300u);
  eng.Link(2, 0, 900);  // wider link cannot widen the window
  EXPECT_EQ(eng.lookahead(), 300u);
  EXPECT_EQ(eng.link_latency(2, 0), 900u);
  EXPECT_EQ(eng.link_latency(0, 2), 0u);  // directed: reverse not registered
}

// ---------------------------------------------------------------------------
// Cross-domain delivery timing.

TEST(ParallelEngine, SendDeliversAtExactlyLinkLatency) {
  ParallelEngine::Options opts;
  opts.domains = 2;
  ParallelEngine eng(opts);
  eng.Link(0, 1, 500);
  eng.Link(1, 0, 500);

  Cycles arrival = 0;
  // Setup-path post seeds the sender; the send itself happens mid-run.
  eng.Post(0, 0, 100, [&eng, &arrival] {
    eng.Send(0, 1, [&eng, &arrival] { arrival = eng.domain(1).now(); });
  });
  eng.Run();
  EXPECT_EQ(arrival, 600u);  // sent at t=100 over a 500-cycle link
}

TEST(ParallelEngine, PostAtExactConservativeBoundIsDelivered) {
  // at == src.now() + latency is the tightest legal post: it lands exactly
  // on the epoch edge (epoch_end) when sent at the epoch's start event.
  ParallelEngine::Options opts;
  opts.domains = 2;
  ParallelEngine eng(opts);
  eng.Link(0, 1, 250);
  eng.Link(1, 0, 250);

  Cycles arrival = 0;
  eng.Post(0, 0, 0, [&eng, &arrival] {
    eng.Post(0, 1, /*at=*/250, [&eng, &arrival] { arrival = eng.domain(1).now(); });
  });
  eng.Run();
  EXPECT_EQ(arrival, 250u);
}

TEST(ParallelEngine, SetupPostNeedsNoLink) {
  // Before Run() there is no running schedule to protect: Post enqueues
  // directly, links not required (the seed path for workloads).
  ParallelEngine::Options opts;
  opts.domains = 2;
  ParallelEngine eng(opts);
  Cycles ran_at = 0;
  eng.Post(0, 1, 42, [&eng, &ran_at] { ran_at = eng.domain(1).now(); });
  eng.Run();
  EXPECT_EQ(ran_at, 42u);
}

// ---------------------------------------------------------------------------
// Same-cycle cross events: ties resolve by (source domain, FIFO), never by
// host scheduling.

TEST(ParallelEngine, SameCycleCrossEventsDrainInSourceDomainOrder) {
  for (int threads : {1, 3}) {
    ParallelEngine::Options opts;
    opts.domains = 3;
    opts.threads = threads;
    ParallelEngine eng(opts);
    for (int s : {0, 1}) {
      eng.Link(s, 2, 100);
      eng.Link(2, s, 100);
    }
    std::vector<int> order;
    // Domain 1 acts first in simulated time (t=5), domain 0 later (t=10),
    // but both messages arrive at t=400 — the drain order must be source
    // domain ascending, so 0's message runs before 1's despite being the
    // later sender.
    eng.Post(1, 1, 5, [&eng, &order] {
      eng.Post(1, 2, 400, [&order] { order.push_back(1); });
    });
    eng.Post(0, 0, 10, [&eng, &order] {
      eng.Post(0, 2, 400, [&order] { order.push_back(0); });
    });
    eng.Run();
    ASSERT_EQ(order.size(), 2u) << "threads=" << threads;
    EXPECT_EQ(order[0], 0) << "threads=" << threads;
    EXPECT_EQ(order[1], 1) << "threads=" << threads;
  }
}

TEST(ParallelEngine, FifoWithinOneSourceSameCycle) {
  ParallelEngine::Options opts;
  opts.domains = 2;
  ParallelEngine eng(opts);
  eng.Link(0, 1, 100);
  eng.Link(1, 0, 100);
  std::vector<int> order;
  eng.Post(0, 0, 0, [&eng, &order] {
    // Two posts, same source, same delivery cycle: FIFO.
    eng.Post(0, 1, 300, [&order] { order.push_back(1); });
    eng.Post(0, 1, 300, [&order] { order.push_back(2); });
  });
  eng.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// Epoch planning skips idle gaps.

TEST(ParallelEngine, IdleGapsAreFastForwarded) {
  ParallelEngine::Options opts;
  opts.domains = 2;
  ParallelEngine eng(opts);
  eng.Link(0, 1, 100);  // narrow epochs to make the point sharp
  int ran = 0;
  // Events a billion cycles apart: a naive epoch walk would need 10^7
  // windows; planning from the global minimum next-event time needs one
  // epoch per event cluster.
  eng.Post(0, 0, 1'000'000'000, [&ran] { ++ran; });
  eng.Post(0, 1, 2'000'000'000, [&ran] { ++ran; });
  eng.Run();
  EXPECT_EQ(ran, 2);
  EXPECT_LE(eng.epochs(), 4u);
  // Clocks park at the final epoch's edge, at most one lookahead past the
  // last event.
  EXPECT_GE(eng.max_now(), 2'000'000'000u);
  EXPECT_LT(eng.max_now(), 2'000'000'000u + 100u);
}

// ---------------------------------------------------------------------------
// Determinism fuzz: a randomized multi-hop message storm must produce the
// byte-identical schedule at every host thread count.

struct FuzzMsg {
  std::uint32_t id = 0;
  int hop = 0;
  int ttl = 0;
};

struct FuzzWorld {
  explicit FuzzWorld(int domains, int threads) {
    ParallelEngine::Options opts;
    opts.domains = domains;
    opts.threads = threads;
    eng.emplace(opts);
    logs.resize(static_cast<std::size_t>(domains));
    for (int s = 0; s < domains; ++s) {
      for (int d = 0; d < domains; ++d) {
        if (s != d) {
          // Asymmetric latencies; min (=lookahead) is 200.
          eng->Link(s, d, 200 + 37 * ((s * 7 + d) % 5));
        }
      }
    }
  }
  std::optional<ParallelEngine> eng;
  std::vector<std::vector<std::uint64_t>> logs;  // per-domain execution log
  int heavy_work = 0;  // extra hash rounds per hop in domain 0 (host time only)
};

// Pure hash so both runs derive the identical itinerary with no shared
// mutable RNG state.
std::uint64_t FuzzHash(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void FuzzHop(FuzzWorld* w, FuzzMsg m) {
  const int d = CurrentDomain();
  Executor& exec = w->eng->domain(d);
  const Cycles t = exec.now();
  std::uint64_t entry = FuzzHash(t, (std::uint64_t{m.id} << 16) | static_cast<unsigned>(m.hop));
  if (d == 0) {
    // Skews host time, not simulated time: the rounds fold into the log so
    // the compiler cannot drop them, and depend only on the hop.
    for (int i = 0; i < w->heavy_work; ++i) {
      entry = FuzzHash(entry, static_cast<std::uint64_t>(i));
    }
  }
  w->logs[static_cast<std::size_t>(d)].push_back(entry);
  if (m.ttl == 0) {
    return;
  }
  const std::uint64_t h = FuzzHash(m.id, static_cast<std::uint64_t>(m.hop));
  const int domains = w->eng->num_domains();
  int next = static_cast<int>(h % static_cast<std::uint64_t>(domains));
  if (next == d) {
    next = (next + 1) % domains;
  }
  const Cycles lat = w->eng->link_latency(d, next);
  const Cycles extra = h >> 32 & 0x3ff;  // deterministic jitter past the bound
  FuzzMsg nm{m.id, m.hop + 1, m.ttl - 1};
  w->eng->Post(d, next, t + lat + extra, [w, nm] { FuzzHop(w, nm); });
}

struct FuzzRun {
  std::vector<std::vector<std::uint64_t>> logs;
  std::uint64_t epochs = 0;
  std::uint64_t barrier_wait_ns = 0;
};

FuzzRun RunFuzz(int domains, int threads, int ttl = 12, int heavy_work = 0) {
  FuzzWorld w(domains, threads);
  w.heavy_work = heavy_work;
  for (std::uint32_t id = 0; id < 24; ++id) {
    const int start = static_cast<int>(id) % domains;
    const Cycles at = FuzzHash(id, 99) % 5000;
    FuzzMsg m{id, 0, ttl};
    FuzzWorld* wp = &w;
    w.eng->Post(0, start, at, [wp, m] { FuzzHop(wp, m); });
  }
  w.eng->Run();
  return {w.logs, w.eng->epochs(), w.eng->barrier_wait_ns()};
}

TEST(ParallelEngine, FuzzScheduleIsThreadCountInvariant) {
  const auto base = RunFuzz(4, 1).logs;
  std::size_t total = 0;
  for (const auto& l : base) {
    total += l.size();
  }
  EXPECT_EQ(total, 24u * 13u);  // every hop of every message executed
  EXPECT_EQ(RunFuzz(4, 2).logs, base);
  EXPECT_EQ(RunFuzz(4, 4).logs, base);
}

TEST(ParallelEngine, SkewedHostWorkAcrossPlacementPassesIsThreadCountInvariant) {
  // Seven domains, as in a rack, with domain 0 costing far more host time
  // per event than the rest, so re-placement moves domains between workers
  // (and hands their queues to new owner threads). The run spans several
  // placement passes; 3 threads splits the domains unevenly.
  constexpr int kTtl = 400;
  const FuzzRun base = RunFuzz(7, 1, kTtl, /*heavy_work=*/400);
  ASSERT_GE(base.epochs, 4 * ParallelEngine::kPlacementEpochs);
  EXPECT_EQ(base.barrier_wait_ns, 0u);  // no barrier at one thread
  for (int threads : {2, 3, 4}) {
    const FuzzRun r = RunFuzz(7, threads, kTtl, /*heavy_work=*/400);
    EXPECT_EQ(r.logs, base.logs) << "threads=" << threads;
    EXPECT_EQ(r.epochs, base.epochs) << "threads=" << threads;
  }
}

TEST(ParallelEngine, OneDomainPerWorkerBeyondHostCoresIsThreadCountInvariant) {
  // Eight workers: on a host with fewer cores they park at once instead of
  // polling, and with one domain each there is nothing to re-place.
  const auto base = RunFuzz(8, 1, /*ttl=*/40).logs;
  EXPECT_EQ(RunFuzz(8, 8, /*ttl=*/40).logs, base);
}

// Burns host time well past the barrier's spin bound without advancing
// simulated time.
void BurnHostTime(std::chrono::nanoseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

std::array<std::vector<Cycles>, 2> RunSlowPeer(int threads, std::uint64_t* wait_ns) {
  ParallelEngine::Options opts;
  opts.domains = 2;
  opts.threads = threads;
  ParallelEngine eng(opts);
  eng.Link(0, 1, 100);
  eng.Link(1, 0, 100);
  std::array<std::vector<Cycles>, 2> logs;  // one per domain: single-writer
  // Domain 0 ticks once per epoch and is slow on the host; domain 1 echoes
  // each tick back, so its worker waits at every barrier for longer than it
  // polls, parks, and must be woken.
  for (Cycles t = 0; t < 20 * 100; t += 100) {
    eng.Post(0, 0, t, [&eng, &logs] {
      BurnHostTime(3 * ParallelEngine::kSpinBound);
      eng.Send(0, 1, [&eng, &logs] {
        logs[1].push_back(eng.domain(1).now());
        eng.Send(1, 0, [&eng, &logs] { logs[0].push_back(eng.domain(0).now()); });
      });
    });
  }
  eng.Run();
  *wait_ns = eng.barrier_wait_ns();
  return logs;
}

TEST(ParallelEngine, WorkerParksBehindASlowPeerAndIsWoken) {
  std::uint64_t wait_1 = 0;
  std::uint64_t wait_2 = 0;
  const auto base = RunSlowPeer(1, &wait_1);
  EXPECT_EQ(base[0].size(), 20u);
  EXPECT_EQ(base[1].size(), 20u);
  EXPECT_EQ(RunSlowPeer(2, &wait_2), base);
  EXPECT_EQ(wait_1, 0u);
  // The waits add up to well past the poll: waiters had to park.
  const auto bound = static_cast<std::uint64_t>(
      std::chrono::nanoseconds(ParallelEngine::kSpinBound).count());
  EXPECT_GT(wait_2, 10 * bound);
}

// ---------------------------------------------------------------------------
// Guardrails die loudly instead of corrupting the timeline.

TEST(ParallelEngineDeath, ConservativeBoundViolationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        ParallelEngine::Options opts;
        opts.domains = 2;
        ParallelEngine eng(opts);
        eng.Link(0, 1, 500);
        eng.Link(1, 0, 500);
        eng.Post(0, 0, 100, [&eng] {
          // Delivery at 101 < now (100) + latency (500): the destination may
          // already be past t=101 in this epoch.
          eng.Post(0, 1, 101, [] {});
        });
        eng.Run();
      },
      "violates conservative bound");
}

TEST(ParallelEngineDeath, ZeroLatencyLinkRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        ParallelEngine::Options opts;
        opts.domains = 2;
        ParallelEngine eng(opts);
        eng.Link(0, 1, 0);
      },
      "latency must be");
}

}  // namespace
}  // namespace mk::sim
