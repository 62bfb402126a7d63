// Wall-time microbenchmarks of the simulator itself (google-benchmark).
//
// Unlike every other bench target (which reports *simulated* cycles, the
// paper's metric), this one measures how fast the discrete-event simulator
// and its core data structures run on the host — useful when growing the
// experiments.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "hw/machine.h"
#include "hw/platform.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "skb/skb.h"
#include "urpc/channel.h"

// Global allocation counter: every operator new in the process bumps it, so
// a benchmark can report exact heap-allocation counts for a measured region
// (see BM_ExecutorSteadyStateAllocs).
std::atomic<std::uint64_t> g_alloc_count{0};

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) {
    return p;
  }
  throw std::bad_alloc{};
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mk;
using sim::Cycles;
using sim::Task;

void BM_ExecutorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Executor exec;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      exec.CallAt(static_cast<Cycles>(i), [&sink] { ++sink; });
    }
    exec.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ExecutorEventDispatch);

// Far-tier stress: timestamps spread across a 50k-cycle horizon, so most
// events enter the far heap and migrate into the near ring as the clock
// approaches them.
void BM_ExecutorFarHorizon(benchmark::State& state) {
  for (auto _ : state) {
    sim::Executor exec;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      exec.CallAt(static_cast<Cycles>((i * 37) % 50000), [&sink] { ++sink; });
    }
    exec.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ExecutorFarHorizon);

// Steady-state allocation audit: a long-lived executor dispatching inline
// callbacks must do zero heap allocations per event once its node freelist
// has warmed up. Reports allocations per thousand dispatched events. The
// argument is the scheduling horizon in cycles: at 700 every event stays in
// the near ring, at 5000 most of them pass through the far heap.
void BM_ExecutorSteadyStateAllocs(benchmark::State& state) {
  const auto horizon = static_cast<Cycles>(state.range(0));
  sim::Executor exec;
  int sink = 0;
  // Warm-up: grow the node freelist and the far heap past the working set.
  for (int i = 0; i < 4000; ++i) {
    exec.CallAt(static_cast<Cycles>(i % 2000), [&sink] { ++sink; });
  }
  exec.Run();
  const std::uint64_t events_before = exec.events_dispatched();
  const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const Cycles base = exec.now();
    for (int i = 0; i < 1000; ++i) {
      exec.CallAt(base + 1 + static_cast<Cycles>(i * 37) % horizon, [&sink] { ++sink; });
    }
    exec.Run();
  }
  const std::uint64_t events = exec.events_dispatched() - events_before;
  const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_1k_events"] =
      1000.0 * static_cast<double>(allocs) / static_cast<double>(events ? events : 1);
}
BENCHMARK(BM_ExecutorSteadyStateAllocs)->Arg(700)->Arg(5000);

// As above, but with a tracer installed and every category enabled: the
// trace hot path must also be allocation-free once the per-core rings exist.
void BM_ExecutorSteadyStateAllocsTraced(benchmark::State& state) {
  trace::Tracer tracer(/*capacity_per_core=*/1 << 12);
  tracer.Install();
  sim::Executor exec;
  int sink = 0;
  // Warm-up: grow the node freelist and allocate the executor's trace ring.
  for (int i = 0; i < 4000; ++i) {
    exec.CallAt(static_cast<Cycles>(i % 2000), [&sink] { ++sink; });
  }
  exec.Run();
  const std::uint64_t events_before = exec.events_dispatched();
  const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const Cycles base = exec.now();
    for (int i = 0; i < 1000; ++i) {
      exec.CallAt(base + 1 + static_cast<Cycles>(i % 700), [&sink] { ++sink; });
    }
    exec.Run();
  }
  const std::uint64_t events = exec.events_dispatched() - events_before;
  const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  tracer.Uninstall();
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_1k_events"] =
      1000.0 * static_cast<double>(allocs) / static_cast<double>(events ? events : 1);
}
BENCHMARK(BM_ExecutorSteadyStateAllocsTraced);

// Raw cost of one trace point with an active tracer (mask test + 40-byte
// ring store).
void BM_TraceEmit(benchmark::State& state) {
  trace::Tracer tracer(/*capacity_per_core=*/1 << 12);
  tracer.Install();
  Cycles cycle = 0;
  for (auto _ : state) {
    trace::Emit<trace::Category::kExec>(trace::EventId::kExecCycle, ++cycle, 0, 1);
  }
  tracer.Uninstall();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmit);

Task<> DelayLoop(sim::Executor& exec, int n) {
  for (int i = 0; i < n; ++i) {
    co_await exec.Delay(10);
  }
}

void BM_CoroutineDelayLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Executor exec;
    exec.Spawn(DelayLoop(exec, 1000));
    exec.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineDelayLoop);

Task<> WriteLoop(hw::Machine& m, sim::Addr addr, int n) {
  for (int i = 0; i < n; ++i) {
    co_await m.mem().Write(i % 4, addr);
  }
}

void BM_CoherenceTransactions(benchmark::State& state) {
  for (auto _ : state) {
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd4x4());
    auto addr = m.mem().AllocLines(0, 1);
    exec.Spawn(WriteLoop(m, addr, 1000));
    exec.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoherenceTransactions);

Task<> ReadRing(hw::Machine& m, int core, sim::Addr ring, int buffers) {
  for (int b = 0; b < buffers; ++b) {
    co_await m.mem().Read(core, ring + static_cast<sim::Addr>(b) * 2048, 1536);
  }
}

// Every line read here is touched for the first time, so this prices the
// coherence model's line-directory insert (BM_CoherenceTransactions only ever
// hits one line). A fresh Amd8x4 per iteration; the first core of each node
// reads a 1.5 KB frame from each buffer of a ring of 2 KB buffers homed on
// its node. Items are lines.
void BM_CoherenceFirstTouch(benchmark::State& state) {
  constexpr int kBuffers = 256;
  constexpr std::uint64_t kLinesPerBuffer = 2048 / sim::kCacheLineBytes;
  constexpr std::int64_t kLinesPerFrame = 1536 / sim::kCacheLineBytes;
  std::int64_t lines = 0;
  for (auto _ : state) {
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd8x4());
    const hw::Topology& topo = m.topo();
    for (int node = 0; node < topo.num_packages(); ++node) {
      sim::Addr ring = m.mem().AllocLines(node, kBuffers * kLinesPerBuffer);
      exec.Spawn(ReadRing(m, node * topo.cores_per_package(), ring, kBuffers));
      lines += kBuffers * kLinesPerFrame;
    }
    exec.Run();
  }
  state.SetItemsProcessed(lines);
}
BENCHMARK(BM_CoherenceFirstTouch);

Task<> Stream(urpc::Channel& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await ch.SendPosted(urpc::Message{});
  }
}

Task<> Drain(urpc::Channel& ch, int n) {
  for (int i = 0; i < n; ++i) {
    (void)co_await ch.Recv();
  }
}

void BM_UrpcChannelStream(benchmark::State& state) {
  for (auto _ : state) {
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd4x4());
    urpc::Channel ch(m, 0, 4);
    exec.Spawn(Stream(ch, 1000));
    exec.Spawn(Drain(ch, 1000));
    exec.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_UrpcChannelStream);

Task<> PingClient(urpc::Channel& req, urpc::Channel& resp, int n) {
  for (int i = 0; i < n; ++i) {
    co_await req.SendPosted(urpc::Message{});
    (void)co_await resp.Recv();
  }
}

Task<> PingServer(urpc::Channel& req, urpc::Channel& resp, int n) {
  for (int i = 0; i < n; ++i) {
    (void)co_await req.Recv();
    co_await resp.SendPosted(urpc::Message{});
  }
}

// Round-trip URPC: request and response channels between two cores, the
// paper's ping-pong shape. Exercises the executor's wake-up path (Event
// signal -> schedule -> resume) once per message in each direction.
void BM_UrpcPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd4x4());
    urpc::Channel req(m, 0, 4);
    urpc::Channel resp(m, 4, 0);
    exec.Spawn(PingClient(req, resp, 500));
    exec.Spawn(PingServer(req, resp, 500));
    exec.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // two messages per round trip
}
BENCHMARK(BM_UrpcPingPong);

void BM_SkbRouteConstruction(benchmark::State& state) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  skb::Skb skb(m);
  skb.PopulateFromHardware();
  for (auto _ : state) {
    auto route = skb.BuildMulticastRoute(0, true);
    benchmark::DoNotOptimize(route);
  }
}
BENCHMARK(BM_SkbRouteConstruction);

void BM_RngThroughput(benchmark::State& state) {
  sim::Rng rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc ^= rng.Next();
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngThroughput);

}  // namespace

BENCHMARK_MAIN();
