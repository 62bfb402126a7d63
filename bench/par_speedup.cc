// Parallel-engine speedup sweep: events/sec and wall-clock at 1/2/4/8 host
// threads, with bit-identical schedules as the acceptance gate.
//
// Two multi-domain workloads, each run once per host thread count on fresh
// worlds:
//
//   * scaleout-partitioned — the section 5.4 serving path partitioned the
//     multikernel way: 8 domains, each owning a complete machine (client
//     stack, server stack, httpd, closed-loop clients — the sec54_scaleout
//     crosscheck pipeline), plus a gossip NIC bridged to the next domain by
//     net::CrossWire in a ring. The gossip frames are real cross-domain
//     traffic through the engine's mailboxes; the serving load is the
//     per-domain compute that parallelism should win back.
//   * fig8-replicas — 8 independent replicas of the fig8 two-phase-commit
//     world (8x4 AMD machine, monitor collective, 16 pipelined 32-core
//     retypes each). No cross-domain links: the embarrassingly parallel
//     upper bound for the engine.
//
// For every workload the per-run digest folds each domain's final clock and
// event count (plus serving/gossip totals and the engine's cross-message
// count) into one value; every thread count must produce the 1-thread
// digest bit-for-bit, and the bench exits non-zero otherwise. Wall-clock,
// events/sec, and speedup land in BENCH_parallel.json (--json=PATH).
// host_cores is recorded because speedup is bounded by the machine this
// runs on: on a single-core host all thread counts measure the same
// sequential schedule plus barrier overhead.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/httpd.h"
#include "bench_util.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "kernel/cpu_driver.h"
#include "monitor/monitor.h"
#include "net/crosswire.h"
#include "net/nic.h"
#include "net/stack.h"
#include "serving.h"
#include "sim/executor.h"
#include "sim/parallel.h"
#include "skb/skb.h"

namespace mk {
namespace {

using net::Packet;
using sim::Cycles;
using sim::Task;

constexpr net::Ipv4Addr kServerIp = net::MakeIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kClientIp = net::MakeIp(10, 0, 0, 77);
const net::MacAddr kServerMac{2, 0, 0, 0, 0, 1};
const net::MacAddr kClientMac{2, 0, 0, 0, 0, 77};

constexpr int kServicesCore = 0;  // client cluster stand-in
constexpr int kDriverCore = 2;
constexpr int kServerCore = 3;
constexpr Cycles kDriverFrameCost = 1400;

// Inter-domain gossip wire: ~3 us one way at 3 GHz — a top-of-rack switch
// hop between machines. This is also the engine's conservative lookahead
// for the ring, so epochs are 10k cycles wide.
constexpr Cycles kGossipWireLatency = 10'000;

std::uint64_t DigestMix(std::uint64_t h, std::uint64_t v) {
  // FNV-1a over the value's bytes, folded 64 bits at a time.
  h ^= v;
  return h * 0x100000001b3ULL;
}

struct RunMeasure {
  int threads = 0;
  double wall_ms = 0;
  std::uint64_t events = 0;
  std::uint64_t cross_messages = 0;
  std::uint64_t epochs = 0;
  std::uint64_t digest = 0;
};

// ---------------------------------------------------------------------------
// Workload 1: partitioned section 5.4 serving ring.

// One domain's world: the sec54_scaleout crosscheck pipeline (client stack
// and server stack wired back-to-back through a driver-core charge, httpd,
// closed-loop clients) plus a gossip NIC facing the inter-domain ring.
struct ServeWorld {
  ServeWorld(sim::Executor& exec, int domain)
      : machine(exec, hw::Amd2x2()),
        server(machine, kServerCore, kServerIp, kServerMac, net::StackCosts{}),
        client(machine, kServicesCore, kClientIp, kClientMac, bench::FreeCosts()),
        gossip_nic(machine, GossipConfig()),
        http(machine, server, 80, {}),
        domain_id(domain) {
    server.AddArp(kClientIp, kClientMac);
    client.AddArp(kServerIp, kServerMac);
    server.SetOutput([this](Packet p) -> Task<> {
      co_await machine.Compute(kDriverCore, kDriverFrameCost);
      co_await client.Input(std::move(p));
    });
    client.SetOutput([this](Packet p) -> Task<> {
      co_await machine.Compute(kDriverCore, kDriverFrameCost);
      co_await server.Input(std::move(p));
    });
  }

  static net::SimNic::Config GossipConfig() {
    net::SimNic::Config cfg;
    cfg.gbps = 10.0;
    cfg.irq_core = kDriverCore;
    return cfg;
  }

  hw::Machine machine;
  net::NetStack server;
  net::NetStack client;
  net::SimNic gossip_nic;
  apps::HttpServer http;
  int domain_id = 0;
  int requests_done = 0;
  std::uint64_t gossip_received = 0;
};

Task<> ServeClient(ServeWorld& w, int requests) {
  for (int r = 0; r < requests; ++r) {
    net::NetStack::TcpConn* conn = co_await w.client.TcpConnect(kServerIp, 80);
    co_await w.client.TcpSend(*conn, "GET /index.html HTTP/1.0\r\n\r\n");
    while (!conn->peer_closed) {
      auto chunk = co_await conn->Read();
      if (chunk.empty()) {
        break;
      }
    }
    co_await w.client.TcpClose(*conn);
    ++w.requests_done;
  }
}

Task<> GossipSource(ServeWorld& w, int frames, Cycles interval) {
  for (int i = 0; i < frames; ++i) {
    Packet p(64, static_cast<std::uint8_t>(w.domain_id));
    (void)co_await w.gossip_nic.DriverTxPush(kDriverCore, std::move(p));
    co_await w.machine.exec().Delay(interval);
  }
}

Task<> GossipSink(ServeWorld& w, int expect) {
  while (w.gossip_received < static_cast<std::uint64_t>(expect)) {
    if (w.gossip_nic.RxReady()) {
      w.gossip_nic.SetInterruptsEnabled(0, false);
      auto frame = co_await w.gossip_nic.DriverRxPop(kDriverCore);
      if (frame) {
        ++w.gossip_received;
      }
      continue;
    }
    w.gossip_nic.SetInterruptsEnabled(0, true);
    if (!w.gossip_nic.RxReady()) {
      co_await w.gossip_nic.rx_irq().Wait();
      co_await w.machine.Trap(kDriverCore);
    }
  }
}

RunMeasure RunScaleoutPartitioned(int domains, int threads, bool quick) {
  const int kClients = quick ? 2 : 4;
  const int kRequestsPerClient = quick ? 6 : 20;
  const int kGossipFrames = quick ? 40 : 160;
  const Cycles kGossipInterval = 25'000;

  sim::ParallelEngine::Options opts;
  opts.domains = domains;
  opts.threads = threads;
  sim::ParallelEngine engine(opts);

  std::vector<std::unique_ptr<ServeWorld>> worlds;
  for (int d = 0; d < domains; ++d) {
    worlds.push_back(std::make_unique<ServeWorld>(engine.domain(d), d));
  }
  std::vector<std::unique_ptr<net::CrossWire>> ring;
  for (int d = 0; d < domains; ++d) {
    const int next = (d + 1) % domains;
    ring.push_back(std::make_unique<net::CrossWire>(engine, d, worlds[static_cast<std::size_t>(d)]->gossip_nic,
                                                    next, worlds[static_cast<std::size_t>(next)]->gossip_nic,
                                                    kGossipWireLatency));
  }
  for (auto& w : ring) {
    w->Start();
  }
  for (int d = 0; d < domains; ++d) {
    ServeWorld& w = *worlds[static_cast<std::size_t>(d)];
    engine.domain(d).Spawn(w.http.Serve());
    for (int c = 0; c < kClients; ++c) {
      engine.domain(d).Spawn(ServeClient(w, kRequestsPerClient));
    }
    engine.domain(d).Spawn(GossipSource(w, kGossipFrames, kGossipInterval));
    engine.domain(d).Spawn(GossipSink(w, kGossipFrames));
  }

  const auto t0 = std::chrono::steady_clock::now();
  engine.Run();
  const auto t1 = std::chrono::steady_clock::now();

  RunMeasure m;
  m.threads = threads;
  m.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  m.events = engine.events_dispatched();
  m.cross_messages = engine.cross_messages();
  m.epochs = engine.epochs();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int d = 0; d < domains; ++d) {
    const ServeWorld& w = *worlds[static_cast<std::size_t>(d)];
    h = DigestMix(h, engine.domain(d).now());
    h = DigestMix(h, engine.domain(d).events_dispatched());
    h = DigestMix(h, static_cast<std::uint64_t>(w.requests_done));
    h = DigestMix(h, w.gossip_received);
  }
  h = DigestMix(h, m.cross_messages);
  m.digest = h;
  return m;
}

// ---------------------------------------------------------------------------
// Workload 2: independent fig8 two-phase-commit replicas.

struct TwopcWorld {
  explicit TwopcWorld(sim::Executor& exec)
      : machine(exec, hw::Amd8x4()),
        drivers(kernel::CpuDriver::BootAll(machine)),
        skb(machine),
        sys(machine, skb, drivers) {
    skb.PopulateFromHardware();
    exec.Spawn(skb.MeasureUrpcLatencies());
    exec.Run();  // boot happens at setup time, on the calling thread
    sys.Boot();
  }
  hw::Machine machine;
  std::vector<std::unique_ptr<kernel::CpuDriver>> drivers;
  skb::Skb skb;
  monitor::MonitorSystem sys;
  int remaining = 0;
};

Task<> TwopcWorker(TwopcWorld& w, caps::CapId root) {
  (void)co_await w.sys.on(0).GlobalRetype(root, caps::CapType::kFrame, 4096, 1,
                                          monitor::Protocol::kNumaMulticast, {},
                                          /*ncores=*/32);
  if (--w.remaining == 0) {
    w.sys.Shutdown();
  }
}

RunMeasure RunFig8Replicas(int domains, int threads, bool quick) {
  const int kOps = quick ? 6 : 16;

  sim::ParallelEngine::Options opts;
  opts.domains = domains;
  opts.threads = threads;
  sim::ParallelEngine engine(opts);

  std::vector<std::unique_ptr<TwopcWorld>> worlds;
  for (int d = 0; d < domains; ++d) {
    worlds.push_back(std::make_unique<TwopcWorld>(engine.domain(d)));
    TwopcWorld& w = *worlds.back();
    w.remaining = kOps;
    for (int i = 0; i < kOps; ++i) {
      caps::CapId root = w.sys.InstallRootCap(static_cast<std::uint64_t>(i) << 24, 1 << 24);
      engine.domain(d).Spawn(TwopcWorker(w, root));
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  engine.Run();
  const auto t1 = std::chrono::steady_clock::now();

  RunMeasure m;
  m.threads = threads;
  m.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  m.events = engine.events_dispatched();
  m.cross_messages = engine.cross_messages();
  m.epochs = engine.epochs();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int d = 0; d < domains; ++d) {
    h = DigestMix(h, engine.domain(d).now());
    h = DigestMix(h, engine.domain(d).events_dispatched());
    h = DigestMix(h, static_cast<std::uint64_t>(worlds[static_cast<std::size_t>(d)]->remaining));
  }
  m.digest = h;
  return m;
}

// ---------------------------------------------------------------------------

struct WorkloadReport {
  std::string name;
  int domains = 0;
  std::vector<RunMeasure> runs;
  bool deterministic = true;
};

void PrintWorkload(const WorkloadReport& r) {
  std::printf("\n-- %s (%d domains) --\n", r.name.c_str(), r.domains);
  std::printf("%8s %12s %14s %10s %8s %10s  %s\n", "threads", "wall ms", "events/s",
              "speedup", "epochs", "cross", "digest");
  const double base = r.runs.empty() ? 0 : r.runs.front().wall_ms;
  for (const RunMeasure& m : r.runs) {
    std::printf("%8d %12.1f %14.0f %9.2fx %8llu %10llu  %016llx\n", m.threads,
                m.wall_ms,
                m.wall_ms > 0 ? static_cast<double>(m.events) / (m.wall_ms / 1e3) : 0,
                m.wall_ms > 0 ? base / m.wall_ms : 0,
                static_cast<unsigned long long>(m.epochs),
                static_cast<unsigned long long>(m.cross_messages),
                static_cast<unsigned long long>(m.digest));
  }
  std::printf("schedule across thread counts: %s\n",
              r.deterministic ? "bit-identical" : "DIVERGED");
}

void WriteJson(const std::string& path, const std::vector<WorkloadReport>& reports,
               unsigned host_cores) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"par_speedup\",\n  \"host_cores\": %u,\n", host_cores);
  std::fprintf(f, "  \"workloads\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const WorkloadReport& r = reports[i];
    const double base = r.runs.empty() ? 0 : r.runs.front().wall_ms;
    std::fprintf(f, "    {\n      \"name\": \"%s\",\n      \"domains\": %d,\n",
                 r.name.c_str(), r.domains);
    std::fprintf(f, "      \"deterministic\": %s,\n      \"runs\": [\n",
                 r.deterministic ? "true" : "false");
    for (std::size_t j = 0; j < r.runs.size(); ++j) {
      const RunMeasure& m = r.runs[j];
      std::fprintf(f,
                   "        {\"threads\": %d, \"wall_ms\": %.3f, "
                   "\"events\": %llu, \"events_per_sec\": %.0f, "
                   "\"speedup\": %.3f, \"epochs\": %llu, "
                   "\"cross_messages\": %llu, \"digest\": \"%016llx\"}%s\n",
                   m.threads, m.wall_ms, static_cast<unsigned long long>(m.events),
                   m.wall_ms > 0 ? static_cast<double>(m.events) / (m.wall_ms / 1e3) : 0,
                   m.wall_ms > 0 ? base / m.wall_ms : 0,
                   static_cast<unsigned long long>(m.epochs),
                   static_cast<unsigned long long>(m.cross_messages),
                   static_cast<unsigned long long>(m.digest),
                   j + 1 < r.runs.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n    }%s\n", i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nresults written to %s\n", path.c_str());
}

}  // namespace
}  // namespace mk

int main(int argc, char** argv) {
  using namespace mk;
  bench::ParseTraceFlags(argc, argv);  // accepted for harness uniformity; not traced
  // --machines is the rack-wide spelling of this bench's --domains (each
  // engine domain owns a complete machine here), so run scripts can forward
  // one flag to every bench.
  const int machines = bench::ParseMachinesFlag(argc, argv, 0);
  bool quick = false;
  int domains = machines != 0 ? machines : 8;
  std::string json_path = "BENCH_parallel.json";
  std::vector<int> thread_counts = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--domains=", 10) == 0) {
      domains = static_cast<int>(
          bench::ParseIntFlag("--domains", argv[i] + 10, 2, sim::kMaxDomains));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      // Single-point mode: run only this thread count (plus the 1-thread
      // reference for the digest comparison).
      const int t = static_cast<int>(bench::ParseIntFlag("--threads", argv[i] + 10, 1, 1024));
      thread_counts = t == 1 ? std::vector<int>{1} : std::vector<int>{1, t};
    }
  }
  if (domains < 2 || domains > sim::kMaxDomains) {
    std::fprintf(stderr, "need 2..%d domains\n", sim::kMaxDomains);
    return 2;
  }

  const unsigned host_cores = std::thread::hardware_concurrency();
  bench::PrintHeader("Parallel DES engine: wall-clock speedup vs host threads");
  std::printf("host cores: %u  (speedup is bounded by min(threads, domains, host cores))\n",
              host_cores);

  std::vector<WorkloadReport> reports;
  struct Spec {
    const char* name;
    RunMeasure (*run)(int, int, bool);
  };
  const Spec specs[] = {
      {"scaleout-partitioned", &RunScaleoutPartitioned},
      {"fig8-replicas", &RunFig8Replicas},
  };
  bool all_deterministic = true;
  for (const Spec& s : specs) {
    WorkloadReport r;
    r.name = s.name;
    r.domains = domains;
    for (int t : thread_counts) {
      r.runs.push_back(s.run(domains, t, quick));
      if (r.runs.back().digest != r.runs.front().digest) {
        r.deterministic = false;
      }
    }
    all_deterministic = all_deterministic && r.deterministic;
    PrintWorkload(r);
    reports.push_back(std::move(r));
  }

  WriteJson(json_path, reports, host_cores);
  if (!all_deterministic) {
    std::fprintf(stderr, "FAIL: thread counts produced different schedules\n");
    return 1;
  }
  return 0;
}
