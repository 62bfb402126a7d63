// rack_get: a rack of 4 backend machines x 8 shards (Amd8x4) behind the
// DcFabric switch and the L4Balancer, on the ParallelEngine. Static HTTP/1.0
// GETs at the nominal rate, then a fixed rate ladder. The only multi-domain
// workload: host time goes to epochs, barriers and the NIC -> stack ->
// fabric frame path; the DB, WAL, timer wheel and sync library are bypassed.
#include <memory>
#include <string>
#include <vector>

#include "apps/httpd.h"
#include "cluster/topology.h"
#include "harness.h"
#include "hw/platform.h"
#include "sim/parallel.h"

namespace perfbench {
namespace {

using Topo = mk::cluster::ClusterTopology;

// The rack_serving golden load: one request per 12k cycles across the rack
// (384k per shard over 32 shards).
constexpr double kNominalRate = 1e6 / 12'000.0;
constexpr int kNominalRequests = 2000;
constexpr double kLadder[] = {1.25, 1.5, 1.75, 2.0, 2.5};
constexpr int kRungRequests = 1000;
// Fixed once: 2.5x the nominal p99 of the default seed (592k cycles), which
// puts it between the p99 of the x2.00 and x2.50 rungs.
constexpr Cycles kP99Limit = 1'500'000;
constexpr int kClientCore = Topo::kClientNicQueues;

Request MakeGet(int, mk::sim::Rng& rng) {
  Request r;
  const char* path = rng.Below(2) == 0 ? "/" : "/index.html";
  r.text = std::string("GET ") + path + "?u=" + std::to_string(rng.Below(1'000'000)) +
           " HTTP/1.0\r\n\r\n";
  return r;
}

}  // namespace

PassResult RunRackGet(const PassConfig& cfg) {
  PassResult out;
  Stopwatch setup;

  std::vector<Phase> phases(1 + std::size(kLadder));
  mk::sim::Rng rng(cfg.seed);
  phases[0].name = "nominal";
  phases[0].rate = kNominalRate;
  phases[0].requests = ArrivalSchedule(rng, kNominalRequests, kNominalRate, MakeGet);
  for (std::size_t i = 0; i < std::size(kLadder); ++i) {
    Phase& p = phases[i + 1];
    p.name = Fmt("x%.2f", kLadder[i]);
    p.rate = kNominalRate * kLadder[i];
    p.requests = ArrivalSchedule(rng, kRungRequests, p.rate, MakeGet);
  }

  Topo::Options topts;
  topts.backends = 4;
  topts.shards_per_backend = 8;
  topts.threads = cfg.threads;
  topts.backend_spec = mk::hw::Amd8x4();
  Topo topo(topts);
  mk::sim::ParallelEngine& eng = topo.engine();
  mk::sim::Executor& cexec = eng.domain(Topo::kClientDomain);
  std::vector<SpanSet> spans(static_cast<std::size_t>(topo.num_domains()));

  mk::net::NetStack client(topo.client_machine(), kClientCore, Topo::kClientIp,
                           Topo::ClientMac(), FreeCosts());
  client.AddArp(Topo::kVip, Topo::BalancerMac());
  mk::net::SimNic& cnic = topo.client_nic();
  client.SetOutput([&cnic](mk::net::Packet p) -> Task<> {
    (void)co_await cnic.DriverTxPush(kClientCore, std::move(p), 0);
  });
  for (int q = 0; q < Topo::kClientNicQueues; ++q) {
    cexec.Spawn(DriverLoop(topo.client_machine(), cnic, client, q, q, nullptr, nullptr));
  }

  std::vector<std::unique_ptr<mk::net::NetStack>> stacks;
  std::vector<std::unique_ptr<mk::apps::HttpServer>> servers;
  for (int b = 0; b < topo.backends(); ++b) {
    mk::hw::Machine& bm = topo.backend_machine(b);
    mk::net::SimNic& bnic = topo.backend_nic(b);
    mk::sim::Executor& bexec = eng.domain(Topo::BackendDomain(b));
    SpanSet* bspans = cfg.traced ? &spans[static_cast<std::size_t>(Topo::BackendDomain(b))]
                                 : nullptr;
    for (int s = 0; s < topts.shards_per_backend; ++s) {
      const int core = 4 * s;
      auto stack = std::make_unique<mk::net::NetStack>(bm, core, Topo::kVip, Topo::BackendMac(b));
      stack->AddArp(Topo::kClientIp, Topo::ClientMac());
      stack->SetOutput([&bm, &bnic, core, s](mk::net::Packet p) -> Task<> {
        co_await bm.Compute(core, 1400);
        (void)co_await bnic.DriverTxPush(core, std::move(p), s);
      });
      auto server = std::make_unique<mk::apps::HttpServer>(bm, *stack, 80, nullptr, 60000);
      server->SetAdmission({/*workers=*/8, /*max_pending=*/32, /*queue_deadline=*/5'000'000});
      bexec.Spawn(server->Serve());
      bexec.Spawn(DriverLoop(bm, bnic, *stack, s, core, bspans, nullptr));
      stacks.push_back(std::move(stack));
      servers.push_back(std::move(server));
    }
  }

  ClientConfig ccfg;
  ccfg.server_ip = Topo::kVip;
  Client gen(cexec, {&client}, ccfg);
  gen.Plan(&phases, 0);

  // Each domain snapshots only its own layers at the phase boundaries.
  const int backends = topo.backends();
  const int shards = topts.shards_per_backend;
  std::vector<std::vector<LayerCounters>> snaps(static_cast<std::size_t>(topo.num_domains()));
  eng.domain(Topo::kSwitchDomain)
      .Spawn(SnapshotLoop(eng.domain(Topo::kSwitchDomain), gen.boundaries(), [&topo] {
        double drops = static_cast<double>(topo.fabric().unknown_dst_drops() +
                                           topo.fabric().tx_full_drops());
        for (int p = 0; p < topo.fabric().num_ports(); ++p) {
          const auto& nic = topo.fabric().port_nic(p);
          for (int q = 0; q < nic.num_queues(); ++q) {
            drops += static_cast<double>(nic.queue_stats(q).rx_drops());
          }
        }
        return LayerCounters{{"switch.drops", drops}};
      }, &snaps[Topo::kSwitchDomain]));
  eng.domain(Topo::kBalancerDomain)
      .Spawn(SnapshotLoop(eng.domain(Topo::kBalancerDomain), gen.boundaries(), [&topo] {
        double drops = static_cast<double>(topo.balancer().no_backend_drops() +
                                           topo.balancer().tx_full_drops());
        for (int q = 0; q < topo.balancer_nic().num_queues(); ++q) {
          drops += static_cast<double>(topo.balancer_nic().queue_stats(q).rx_drops());
        }
        return LayerCounters{{"balancer.drops", drops}};
      }, &snaps[Topo::kBalancerDomain]));
  for (int b = 0; b < backends; ++b) {
    const int d = Topo::BackendDomain(b);
    eng.domain(d).Spawn(SnapshotLoop(eng.domain(d), gen.boundaries(), [&, b, d] {
      double nic_drops = 0;
      for (int q = 0; q < topo.backend_nic(b).num_queues(); ++q) {
        nic_drops += static_cast<double>(topo.backend_nic(b).queue_stats(q).rx_drops());
      }
      double stack_drops = 0;
      double shed = 0;
      for (int s = 0; s < shards; ++s) {
        const auto i = static_cast<std::size_t>(b * shards + s);
        stack_drops += static_cast<double>(stacks[i]->drops());
        shed += static_cast<double>(servers[i]->shed_queue_full() + servers[i]->shed_deadline());
      }
      const SpanSet& sp = spans[static_cast<std::size_t>(d)];
      return LayerCounters{{"nic.drops", nic_drops},       {"stack.drops", stack_drops},
                           {"httpd.drops", shed},          {"nic.busy", sp.nic_busy},
                           {"stack.busy", sp.stack_busy}};
    }, &snaps[static_cast<std::size_t>(d)]));
  }
  topo.Start(gen.boundaries().back() + 1'000'000);
  // Everything live in the client domain now is a service loop that parks
  // for the engine's lifetime; the generator and its requests must all end.
  const std::size_t client_loops = cexec.live_tasks();
  cexec.Spawn(gen.Run());
  out.setup_s = setup.Seconds();

  Stopwatch run;
  eng.Run();
  out.wall_s = run.Seconds();

  std::vector<const std::vector<LayerCounters>*> order = {&snaps[Topo::kSwitchDomain],
                                                          &snaps[Topo::kBalancerDomain]};
  for (int b = 0; b < backends; ++b) {
    order.push_back(&snaps[static_cast<std::size_t>(Topo::BackendDomain(b))]);
  }
  MergeSnapshots(order, &phases);
  const KneeResult knee = FindKnee(phases, kP99Limit);
  AddServingMetrics(phases, knee, &out);
  NoteLadder(phases, kP99Limit, knee, &out);

  out.events = eng.events_dispatched();
  out.Sim("exec.events", static_cast<double>(out.events), "count");
  out.Sim("par.epochs", static_cast<double>(eng.epochs()), "count");
  out.Sim("par.events_per_epoch",
          static_cast<double>(out.events) / static_cast<double>(std::max<std::uint64_t>(eng.epochs(), 1)),
          "count");
  out.Sim("par.cross_messages", static_cast<double>(eng.cross_messages()), "count");

  std::vector<mk::hw::Machine*> machines = {&topo.switch_machine(), &topo.client_machine(),
                                            &topo.balancer_machine()};
  std::vector<const mk::net::SimNic*> nics = {&topo.client_nic(), &topo.balancer_nic()};
  for (int b = 0; b < backends; ++b) {
    machines.push_back(&topo.backend_machine(b));
    nics.push_back(&topo.backend_nic(b));
  }
  double crosswire = 0;
  for (int p = 0; p < topo.fabric().num_ports(); ++p) {
    nics.push_back(&topo.fabric().port_nic(p));
    crosswire += static_cast<double>(topo.fabric().wire(p).forwarded_ab() +
                                     topo.fabric().wire(p).forwarded_ba());
  }
  AddHwCounters(machines, &out);
  AddNicCounters(nics, &out);
  std::vector<const mk::net::NetStack*> server_stacks;
  double served = 0, shed = 0, bad = 0;
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    server_stacks.push_back(stacks[i].get());
    served += static_cast<double>(servers[i]->requests_served());
    shed += static_cast<double>(servers[i]->shed_queue_full() + servers[i]->shed_deadline() +
                                servers[i]->shed_progress());
    bad += static_cast<double>(servers[i]->bad_requests());
  }
  AddStackCounters(server_stacks, &out);
  out.Sim("fabric.forwarded", static_cast<double>(topo.fabric().forwarded()), "count");
  out.Sim("fabric.drops",
          static_cast<double>(topo.fabric().unknown_dst_drops() + topo.fabric().tx_full_drops()),
          "count");
  out.Sim("lb.steered", static_cast<double>(topo.balancer().steered()), "count");
  out.Sim("lb.drops",
          static_cast<double>(topo.balancer().no_backend_drops() + topo.balancer().tx_full_drops()),
          "count");
  out.Sim("crosswire.frames", crosswire, "count");
  out.Sim("membership.view_changes", static_cast<double>(topo.membership().view_changes()),
          "count");
  out.Sim("httpd.served", served, "count");
  out.Sim("httpd.shed", shed, "count");
  out.Sim("httpd.bad", bad, "count");

  out.Check("no membership view change in a fault-free run",
            topo.membership().view_changes() == 0);
  std::vector<const mk::sim::Executor*> execs;
  std::vector<std::uint64_t> schedule;
  for (int d = 0; d < topo.num_domains(); ++d) {
    execs.push_back(&eng.domain(d));
    schedule.push_back(eng.domain(d).now());
    schedule.push_back(eng.domain(d).events_dispatched());
  }
  CheckDrained(execs, &out);
  out.Check("client domain: no task outlives the load (only parked service loops remain)",
            gen.finished() && cexec.live_tasks() == client_loops);

  if (cfg.traced) {
    std::vector<const SpanSet*> backend_spans;
    for (int b = 0; b < backends; ++b) {
      backend_spans.push_back(&spans[static_cast<std::size_t>(Topo::BackendDomain(b))]);
    }
    AddNetSpans(backend_spans, &out);
    AddFrameHostTimings(spans[static_cast<std::size_t>(Topo::BackendDomain(0))].captured,
                        &topo.backend_nic(0), &out);
    AddFramerHostTiming(phases, &out);
    AddTracerMetrics(&out);
  }
  Digest d;
  for (std::uint64_t v : schedule) {
    d.Mix(v);
  }
  out.Seal({d.value()});
  return out;
}

}  // namespace perfbench
