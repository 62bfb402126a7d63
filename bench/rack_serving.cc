// Serving from a rack: the multikernel argument applied one level up. §2 of
// the paper says a machine is a distributed system; this bench composes N
// simulated machines (cluster::ClusterTopology) behind a top-of-rack switch
// (cluster::DcFabric) and an L4 balancer machine (cluster::L4Balancer) and
// shows the same three properties sec54_failover shows inside one machine,
// now across machine boundaries:
//
//  - aggregate requests/sec scales near-linearly from 1 to 4 backend
//    machines of 8x4 serving shards (offered load scales with the rack; a
//    clean sweep completes every request, so goodput tracks machines);
//  - a whole-machine fail-stop kill (fault::HaltMachine: every core of one
//    engine domain) is detected by the cluster heartbeat service, committed
//    as an epoch-numbered view change, and the balancer's rendezvous hashing
//    re-steers exactly the dead machine's flows onto survivors, whose stacks
//    RST the orphaned connections so clients re-SYN instead of timing out —
//    throughput recovers to >= (N-1)/N of the pre-kill rate within a
//    printed, bounded window;
//  - the whole rack is one conservative parallel-DES schedule: the port
//    wire latency is the cross-domain lookahead, so --threads=4 replays the
//    --threads=1 run bit-identically (the printed schedule digest is the
//    proof, and the golden transcript never mentions the thread count).
//
// Modes:
//   (none)            machine sweep 1..--machines, deterministic (golden)
//   --kill[=M]        halt every core of backend machine M at t0+1.5M cycles
//   --chaos-seed=N    seeded machine kill + cross-machine link faults
//   --quick           2 machines of 4 shards on 4x4 AMD, lighter load (CI)
//   --machines=N      rack size (sweep ceiling / kill+chaos rack size)
//   --threads=N       host threads for the parallel engine
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/httpd.h"
#include "bench_util.h"
#include "cluster/balancer.h"
#include "cluster/fabric.h"
#include "cluster/membership.h"
#include "cluster/topology.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/nic.h"
#include "net/stack.h"
#include "recover/config.h"
#include "serving.h"
#include "sim/executor.h"
#include "sim/parallel.h"
#include "sim/random.h"

namespace mk {
namespace {

using Topo = cluster::ClusterTopology;
using net::Packet;
using sim::Cycles;
using sim::Task;

// Client stack core; RX drivers own 0..kClientNicQueues-1.
constexpr int kClientCore = cluster::ClusterTopology::kClientNicQueues;
constexpr Cycles kKillOffset = 1'500'000;
constexpr Cycles kBucket = 500'000;

// Same sizing rules as sec54_failover, applied per shard — but a rack is
// sized by its SHARED tiers, not its shards. Every request crosses the
// client switch port, the balancer (drive cores + both uplink switch ports),
// and a backend switch port; the backend ports only ever carry one machine's
// worth, but the uplink tiers carry the whole rack's. At 4 machines of 8
// shards the aggregate interval is interval_per_shard/32, and a full data
// frame costs ~11k switch-core cycles to store-and-forward (23 cache-line
// reads), so 384k/shard keeps every shared tier at or under ~55% utilization
// — low enough that queue tails stay far below the 400k heartbeat timeout,
// with headroom for the +1/(N-1) surviving-machine load after a kill. The
// attempt timeout sits far above the healthy p99 so clients never abandon
// requests a live server is still working on.
constexpr bench::Mix kRackMix{.interval_per_shard = 384'000,
                              .attempt_timeout = 6'000'000,
                              .request_deadline = 20'000'000};

struct RackConfig {
  int machines = 4;
  int shards = 8;  // serving shards per backend machine
  int rps = 100;   // requests per shard
  int threads = 1;
  bench::Mix mix = kRackMix;
  hw::PlatformSpec backend_spec = hw::Amd8x4();
};

RackConfig MakeConfig(bool quick, int machines, int threads) {
  RackConfig cfg;
  cfg.machines = machines;
  cfg.threads = threads;
  if (quick) {
    cfg.shards = 4;
    cfg.rps = 40;
    cfg.backend_spec = hw::Amd4x4();
    // A 1-of-2 kill doubles the survivor's load, so quick mode offers less
    // per shard than the full rack (where a 1-of-4 kill adds only a third).
    cfg.mix.interval_per_shard = 288'000;
  }
  return cfg;
}

struct RackOutput {
  Cycles final_now = 0;
  std::uint64_t events = 0;
  std::uint64_t cross_messages = 0;
  std::uint64_t digest = 0;
  bench::Ledger load;  // completions absolute (t0 == 0: no boot phase)
  std::uint64_t view_changes = 0;
  std::uint64_t epoch = 1;
  Cycles first_view_change_at = 0;  // 0 = none committed
  std::uint64_t heartbeats = 0;
  std::uint64_t stale_beats = 0;
  std::uint64_t steered = 0;
  std::uint64_t resteered = 0;
  std::uint64_t mgmt_frames = 0;
  std::uint64_t no_backend_drops = 0;
  std::uint64_t balancer_tx_full = 0;
  std::uint64_t fabric_forwarded = 0;
  std::uint64_t fabric_unknown_drops = 0;
  std::uint64_t fabric_tx_full = 0;
  std::uint64_t rsts_sent = 0;
  std::uint64_t client_retx = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  bool specs_activated = true;
};

RackOutput RunRack(const RackConfig& cfg, const fault::FaultPlan* plan,
                   bool print_activations) {
  recover::ScopedRecoveryConfig scoped_rcfg(bench::ServingRecoveryConfig());

  Topo::Options topts;
  topts.backends = cfg.machines;
  topts.shards_per_backend = cfg.shards;
  topts.threads = cfg.threads;
  topts.backend_spec = cfg.backend_spec;
  Topo topo(topts);
  sim::ParallelEngine& eng = topo.engine();
  sim::Executor& cexec = eng.domain(Topo::kClientDomain);

  std::unique_ptr<fault::Injector> inj;
  if (plan != nullptr) {
    inj = std::make_unique<fault::Injector>(*plan);
  }

  const int total = cfg.rps * cfg.shards * cfg.machines;
  const Cycles interval =
      cfg.mix.interval_per_shard / static_cast<Cycles>(cfg.shards * cfg.machines);
  // Bounds every periodic loop (heartbeats, membership sweep): past the last
  // launch plus the worst request deadline plus failover slack.
  const Cycles horizon =
      static_cast<Cycles>(total) * interval + cfg.mix.request_deadline + 10'000'000;

  // Client: one stack (the load generator) fed by one RX service loop per
  // client-NIC queue. The client machine is never killed; its loops quiesce
  // by parking on the RX interrupt.
  net::NetStack client(topo.client_machine(), kClientCore, Topo::kClientIp,
                       Topo::ClientMac(), bench::FreeCosts());
  client.AddArp(Topo::kVip, Topo::BalancerMac());
  net::SimNic& cnic = topo.client_nic();
  client.SetOutput([&cnic](Packet p) -> Task<> {
    (void)co_await cnic.DriverTxPush(kClientCore, std::move(p), 0);
  });
  for (int q = 0; q < Topo::kClientNicQueues; ++q) {
    cexec.Spawn(cnic.ServeRx(q, q, bench::kDriverFrameCost, [&client](Packet p) {
      return client.Input(std::move(p));
    }));
  }

  // Backends: every shard stack binds the VIP (direct server return; the
  // stack demuxes inbound by destination IP, so shards share it) plus its
  // machine's MAC; a stack answers a flow it never saw with RST, so adopted
  // flows reset without any arming. Shard drivers park on the RX interrupt
  // like every RX loop: under a machine-scoped halt (HaltMachine) a driver
  // dies on its next wakeup — frames the balancer steers there before the
  // view change commits guarantee one — exactly as a fail-stop machine's
  // driver would.
  std::vector<std::unique_ptr<net::NetStack>> stacks;
  std::vector<std::unique_ptr<apps::HttpServer>> servers;
  for (int b = 0; b < cfg.machines; ++b) {
    hw::Machine& bm = topo.backend_machine(b);
    net::SimNic& bnic = topo.backend_nic(b);
    sim::Executor& bexec = eng.domain(Topo::BackendDomain(b));
    for (int s = 0; s < cfg.shards; ++s) {
      const int core = 4 * s;
      auto stack = std::make_unique<net::NetStack>(bm, core, Topo::kVip,
                                                   Topo::BackendMac(b));
      stack->AddArp(Topo::kClientIp, Topo::ClientMac());
      auto server = std::make_unique<apps::HttpServer>(bm, *stack, 80, nullptr,
                                                       /*request_cost=*/60000);
      server->SetAdmission({/*workers=*/8, /*max_pending=*/32,
                            /*queue_deadline=*/5'000'000});
      bexec.Spawn(server->Serve());
      bexec.Spawn(bench::AttachShard(bm, bnic, s, *stack));
      stacks.push_back(std::move(stack));
      servers.push_back(std::move(server));
    }
  }

  Cycles first_view_change_at = 0;
  topo.membership().Subscribe([&](const recover::View&, int) {
    if (first_view_change_at == 0) {
      first_view_change_at = eng.domain(Topo::kBalancerDomain).now();
    }
  });

  bench::LoadStats st(cexec);
  cexec.Spawn(bench::Generator(cexec, client, Topo::kVip, total, interval, cfg.mix,
                               st, bench::StaticPage()));
  topo.Start(horizon);
  eng.Run();

  RackOutput out;
  out.final_now = eng.max_now();
  out.events = eng.events_dispatched();
  out.cross_messages = eng.cross_messages();
  out.load = std::move(st);
  out.view_changes = topo.membership().view_changes();
  out.epoch = topo.membership().view().epoch;
  out.first_view_change_at = first_view_change_at;
  out.heartbeats = topo.membership().heartbeats_accepted();
  out.stale_beats = topo.membership().stale_dropped();
  out.steered = topo.balancer().steered();
  out.resteered = topo.balancer().resteered();
  out.mgmt_frames = topo.balancer().mgmt_frames();
  out.no_backend_drops = topo.balancer().no_backend_drops();
  out.balancer_tx_full = topo.balancer().tx_full_drops();
  out.fabric_forwarded = topo.fabric().forwarded();
  out.fabric_unknown_drops = topo.fabric().unknown_dst_drops();
  out.fabric_tx_full = topo.fabric().tx_full_drops();
  for (const auto& stk : stacks) {
    out.rsts_sent += stk->tcp_rsts_sent();
  }
  out.client_retx = client.tcp_retransmits();
  for (const auto& srv : servers) {
    out.shed_queue_full += srv->shed_queue_full();
    out.shed_deadline += srv->shed_deadline();
  }

  // Schedule digest: FNV-1a over every domain's final clock and event count
  // plus the workload ledger and each request latency. Any divergence in the
  // parallel schedule — one event reordered anywhere in the rack — changes
  // it, so printing it in the golden transcript makes the thread-invariance
  // gate (--threads=1 vs --threads=4 byte-compare) a real proof.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix64 = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (int d = 0; d < topo.num_domains(); ++d) {
    mix64(eng.domain(d).now());
    mix64(eng.domain(d).events_dispatched());
  }
  mix64(static_cast<std::uint64_t>(out.load.completed));
  mix64(static_cast<std::uint64_t>(out.load.shed));
  mix64(static_cast<std::uint64_t>(out.load.retries));
  mix64(out.cross_messages);
  mix64(out.steered);
  mix64(out.heartbeats);
  for (Cycles c : out.load.latencies) {
    mix64(c);
  }
  out.digest = h;

  if (inj != nullptr) {
    if (print_activations) {
      inj->PrintActivationTable();
    }
    out.specs_activated = inj->AllSpecsActivated();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reporting

bool SameRun(const RackOutput& a, const RackOutput& b) {
  return a.digest == b.digest && a.final_now == b.final_now &&
         a.events == b.events && a.load == b.load &&
         a.view_changes == b.view_changes && a.rsts_sent == b.rsts_sent &&
         a.steered == b.steered;
}

void PrintCounters(const RackOutput& r) {
  std::printf("%-26s %d launched, %d completed, %d shed, %d retries\n",
              "requests:", r.load.launched, r.load.completed, r.load.shed,
              r.load.retries);
  std::printf("%-26s %llu committed (epoch %llu), first at %llu\n",
              "view changes:", static_cast<unsigned long long>(r.view_changes),
              static_cast<unsigned long long>(r.epoch),
              static_cast<unsigned long long>(r.first_view_change_at));
  std::printf("%-26s %llu steered, %llu re-steered, %llu RSTs from survivors\n",
              "flow steering:", static_cast<unsigned long long>(r.steered),
              static_cast<unsigned long long>(r.resteered),
              static_cast<unsigned long long>(r.rsts_sent));
  std::printf("%-26s %llu accepted, %llu stale dropped\n", "heartbeats:",
              static_cast<unsigned long long>(r.heartbeats),
              static_cast<unsigned long long>(r.stale_beats));
  std::printf("%-26s %llu forwarded, %llu unknown-MAC, %llu ring-full\n",
              "fabric:", static_cast<unsigned long long>(r.fabric_forwarded),
              static_cast<unsigned long long>(r.fabric_unknown_drops),
              static_cast<unsigned long long>(r.fabric_tx_full));
  std::printf("%-26s %llu queue-full, %llu deadline\n", "admission sheds:",
              static_cast<unsigned long long>(r.shed_queue_full),
              static_cast<unsigned long long>(r.shed_deadline));
}

// ---------------------------------------------------------------------------
// Modes

int RunSweep(bench::TraceSession& session, bool quick, int max_machines,
             int threads) {
  bench::PrintHeader(
      quick ? "Rack serving: machine sweep, 4 shards/machine on 4x4 AMD (quick)"
            : "Rack serving: machine sweep, 8 shards/machine on 8x4 AMD");
  std::vector<int> machine_counts = {1};
  while (machine_counts.back() * 2 <= max_machines) {
    machine_counts.push_back(machine_counts.back() * 2);
  }
  if (machine_counts.back() != max_machines) {
    machine_counts.push_back(max_machines);
  }

  std::printf("%9s %9s %9s %6s %8s %10s %8s %9s %9s  %16s\n", "machines",
              "launched", "completed", "shed", "retries", "req/Mcyc", "speedup",
              "p50(k)", "p99(k)", "digest");
  bool ok = true;
  double base_rate = 0;
  double last_speedup = 0;
  for (int n : machine_counts) {
    session.BeginRun("sweep-" + std::to_string(n));
    const RackConfig cfg = MakeConfig(quick, n, threads);
    const RackOutput r = RunRack(cfg, nullptr, false);
    const Cycles window =
        static_cast<Cycles>(cfg.rps) * cfg.mix.interval_per_shard;
    const double rate =
        static_cast<double>(r.load.completed) * 1e6 / static_cast<double>(window);
    if (n == 1) {
      base_rate = rate;
    }
    const double speedup = base_rate > 0 ? rate / base_rate : 0;
    if (n == machine_counts.back()) {
      last_speedup = speedup;
    }
    std::printf("%9d %9d %9d %6d %8d %10.2f %7.2fx %9llu %9llu  %016llx\n", n,
                r.load.launched, r.load.completed, r.load.shed, r.load.retries,
                rate, speedup,
                static_cast<unsigned long long>(
                    bench::Percentile(r.load.latencies, 0.50) / 1000),
                static_cast<unsigned long long>(
                    bench::Percentile(r.load.latencies, 0.99) / 1000),
                static_cast<unsigned long long>(r.digest));
    std::printf("          fabric fwd=%llu drop=%llu | balancer steered=%llu "
                "resteer=%llu drop=%llu | hb=%llu | client retx=%llu\n",
                static_cast<unsigned long long>(r.fabric_forwarded),
                static_cast<unsigned long long>(r.fabric_unknown_drops +
                                                r.fabric_tx_full),
                static_cast<unsigned long long>(r.steered),
                static_cast<unsigned long long>(r.resteered),
                static_cast<unsigned long long>(r.no_backend_drops +
                                                r.balancer_tx_full),
                static_cast<unsigned long long>(r.heartbeats),
                static_cast<unsigned long long>(r.client_retx));
    // Zero unexplained drops: every launched request completed, nothing
    // shed, no recovery machinery touched, no frame lost anywhere.
    const bool clean = r.load.completed == r.load.launched && r.load.shed == 0 &&
                       r.load.retries == 0 && r.view_changes == 0 &&
                       r.resteered == 0 && r.rsts_sent == 0 &&
                       r.fabric_unknown_drops == 0 && r.fabric_tx_full == 0 &&
                       r.no_backend_drops == 0 && r.balancer_tx_full == 0 &&
                       r.client_retx == 0;
    if (!clean) {
      std::printf("          UNEXPECTED LOSS OR RECOVERY ACTIVITY at %d machines\n", n);
      ok = false;
    }
  }
  const double ideal = static_cast<double>(machine_counts.back());
  const bool linear = last_speedup >= 0.95 * ideal;
  std::printf("%-26s %.2fx at %d machines (ideal %.0fx) — %s\n",
              "aggregate scaling:", last_speedup, machine_counts.back(), ideal,
              linear ? "near-linear" : "NOT LINEAR");
  ok = ok && linear;
  std::printf("%-26s %s\n", "verdict:", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int RunKill(bench::TraceSession& session, bool quick, int machines, int threads,
            int victim) {
  if (victim < 0 || victim >= machines) {
    std::fprintf(stderr, "--kill=%d out of range (0..%d)\n", victim,
                 machines - 1);
    return 2;
  }
  if (machines < 2) {
    std::fprintf(stderr, "--kill needs --machines>=2 (survivors must exist)\n");
    return 2;
  }
  const RackConfig cfg = MakeConfig(quick, machines, threads);
  bench::PrintHeader("Rack serving: kill machine " + std::to_string(victim) +
                     " (all " + std::to_string(cfg.backend_spec.num_cores()) +
                     " cores) at t0+" + std::to_string(kKillOffset) +
                     " cycles, " + std::to_string(machines) + " machines");
  fault::FaultPlan plan;
  plan.HaltMachine(Topo::BackendDomain(victim), kKillOffset);

  session.BeginRun("kill-run1");
  const RackOutput a = RunRack(cfg, &plan, true);
  session.BeginRun("kill-run2");
  const RackOutput b = RunRack(cfg, &plan, false);

  const Cycles window = static_cast<Cycles>(cfg.rps) * cfg.mix.interval_per_shard;
  const std::vector<int> buckets =
      bench::Bucketize(a.load.completions, 0, window, kBucket);
  bench::PrintBuckets(buckets, kBucket);
  PrintCounters(a);
  std::printf("%-26s connect=%d rst=%d 503=%d other=%d\n", "attempt failures:",
              a.load.fail_connect, a.load.fail_rst, a.load.fail_503,
              a.load.fail_other);

  // Same mean-based recovery rule as sec54_failover, but the sustained-mean
  // threshold is the (N-1)/N share the surviving machines can at best carry
  // if the re-steered load saturated them (they do not saturate at this
  // bench's offered load, so recovery in practice returns to ~the full rate).
  const double frac = static_cast<double>(machines - 1) /
                      static_cast<double>(machines);
  const bench::Recovery rec =
      bench::AnalyzeRecovery(buckets, kBucket, kKillOffset, frac);
  bench::PrintRecovery(rec, ">= " + std::to_string(machines - 1) + "/" +
                                std::to_string(machines) + " of it");

  const bool no_loss = a.load.Balanced();
  const bool deterministic = SameRun(a, b);
  std::printf("%-26s %s\n", "committed-work ledger:",
              no_loss ? "completed + shed == launched" : "REQUESTS LOST");
  std::printf("%-26s %s (run 1: %016llx, run 2: %016llx)\n",
              "replay bit-identical:", deterministic ? "yes" : "NO",
              static_cast<unsigned long long>(a.digest),
              static_cast<unsigned long long>(b.digest));
  const bool ok = rec.recovered && no_loss && deterministic &&
                  a.view_changes == 1 && a.epoch == 2 && a.resteered > 0 &&
                  a.rsts_sent > 0 && a.specs_activated &&
                  a.first_view_change_at > kKillOffset;
  std::printf("%-26s %s\n", "verdict:", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int RunChaos(bench::TraceSession& session, bool quick, int machines,
             int threads, std::uint64_t seed) {
  if (machines < 2) {
    std::fprintf(stderr, "--chaos-seed needs --machines>=2\n");
    return 2;
  }
  RackConfig cfg = MakeConfig(quick, machines, threads);
  cfg.rps = quick ? 16 : 24;
  bench::PrintHeader("Rack serving: chaos plan, seed " + std::to_string(seed) +
                     ", " + std::to_string(machines) + " machines");

  // The seeded plan: one whole-machine kill plus cross-machine link faults
  // on pairs that are guaranteed to carry traffic — a bounded frame-drop
  // burst on the client uplink and a latency-spike window toward one of the
  // surviving backends (so every spec must activate).
  sim::Rng rng(seed);
  fault::FaultPlan plan;
  const int victim = static_cast<int>(rng.Below(static_cast<std::uint64_t>(machines)));
  const Cycles kill_at = 800'000 + static_cast<Cycles>(rng.Below(1'200'000));
  plan.HaltMachine(Topo::BackendDomain(victim), kill_at);
  const Cycles drop_at = 300'000 + static_cast<Cycles>(rng.Below(1'000'000));
  const int drop_n = 1 + static_cast<int>(rng.Below(3));
  plan.DropWireFrames(Topo::kClientDomain, Topo::kSwitchDomain, drop_at, drop_n);
  const int spiked = (victim + 1 +
                      static_cast<int>(rng.Below(static_cast<std::uint64_t>(machines - 1)))) %
                     machines;
  const Cycles spike_at = 300'000 + static_cast<Cycles>(rng.Below(1'200'000));
  const Cycles spike_extra = 20'000 + static_cast<Cycles>(rng.Below(30'000));
  plan.WireDelay(Topo::kSwitchDomain, Topo::BackendDomain(spiked), spike_extra,
                 spike_at, spike_at + 2'000'000);

  std::printf("chaos plan: halt machine %d (domain %d) at t0+%llu\n", victim,
              Topo::BackendDomain(victim),
              static_cast<unsigned long long>(kill_at));
  std::printf("chaos plan: drop %d frame(s) client->switch from t0+%llu\n",
              drop_n, static_cast<unsigned long long>(drop_at));
  std::printf("chaos plan: +%llu cycles switch->machine %d in [t0+%llu, t0+%llu)\n",
              static_cast<unsigned long long>(spike_extra), spiked,
              static_cast<unsigned long long>(spike_at),
              static_cast<unsigned long long>(spike_at + 2'000'000));
  std::printf("replay with: rack_serving %s--machines=%d --chaos-seed=%llu\n",
              quick ? "--quick " : "", machines,
              static_cast<unsigned long long>(seed));

  session.BeginRun("chaos");
  const RackOutput r = RunRack(cfg, &plan, true);
  PrintCounters(r);

  const bool ok = bench::PrintInvariants(
      32,
      {
          {"ledger balances", r.load.Balanced()},
          {"majority served", r.load.completed * 2 >= r.load.launched},
          {"kill became a view change", r.view_changes == 1 && r.epoch == 2},
          {"survivor heartbeats accepted", r.heartbeats > 0},
          {"dead machine's flows re-steered", r.resteered > 0},
          {"no unroutable frames", r.fabric_unknown_drops == 0},
          {"every fault spec fired", r.specs_activated},
      },
      seed);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mk

int main(int argc, char** argv) {
  using namespace mk;
  bench::TraceFlags trace_flags = bench::ParseTraceFlags(argc, argv);
  const int threads = bench::ParseThreadsFlag(argc, argv);
  const int machines_flag = bench::ParseMachinesFlag(argc, argv, 0);  // 0 = pick by mode
  bench::TraceSession session(trace_flags);
  bool quick = false;
  bool kill = false;
  int victim = 1;
  bool chaos = false;
  std::uint64_t chaos_seed = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(arg, "--kill") == 0) {
      kill = true;
    } else if (std::strncmp(arg, "--kill=", 7) == 0) {
      kill = true;
      victim = static_cast<int>(bench::ParseIntFlag("--kill", arg + 7, 0, INT_MAX));
    } else if (std::strncmp(arg, "--chaos-seed=", 13) == 0) {
      chaos = true;
      chaos_seed = bench::ParseIntFlag("--chaos-seed", arg + 13, 0, UINT64_MAX);
    } else {
      std::fprintf(stderr,
                   "usage: rack_serving [--quick] [--machines=N] [--threads=N] "
                   "[--kill[=M]] [--chaos-seed=N]\n");
      return 2;
    }
  }
  const int machines = machines_flag != 0 ? machines_flag : (quick ? 2 : 4);
  int rc = 0;
  if (chaos) {
    rc = RunChaos(session, quick, machines, threads, chaos_seed);
  } else if (kill) {
    rc = RunKill(session, quick, machines, threads, victim);
  } else {
    rc = RunSweep(session, quick, machines, threads);
  }
  return rc;
}
