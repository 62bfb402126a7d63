#include "cluster/topology.h"

#include <utility>

namespace mk::cluster {
namespace {

constexpr sim::Cycles kPortLatency = 10'000;  // ~3.3 us switch hop = the lookahead
constexpr double kBackendGbps = 10.0;
constexpr double kUplinkGbps = 40.0;  // client and balancer ports
// Forwarding loops (RSS-steered RX rings) per switch port. A frame pop reads
// the whole payload through the coherence model (~23 lines for a full data
// frame), so payload-bearing ports need the copy cost spread over several
// switch cores to keep up with an 8-shard backend. The client and balancer
// ports carry the whole rack's frames (every request crosses both), so they
// get kUplinkPortQueues; a backend port only ever carries one machine's
// worth.
constexpr int kSwitchPortQueues = 2;
constexpr int kUplinkPortQueues = 4;
constexpr std::uint16_t kHeartbeatPort = 7100;

}  // namespace

ClusterTopology::ClusterTopology(Options opts) : opts_(std::move(opts)) {
  sim::ParallelEngine::Options eng_opts;
  eng_opts.domains = num_domains();
  eng_opts.threads = opts_.threads;
  engine_ = std::make_unique<sim::ParallelEngine>(eng_opts);

  // Switch, client, and balancer are 16-core Amd4x4s: all three sit on the
  // aggregate path (every frame of every flow), so they get the core counts
  // real ToR silicon / load generators / LB appliances would have rather
  // than becoming accidental bottlenecks of the rack they instrument.
  machines_.push_back(
      std::make_unique<hw::Machine>(engine_->domain(kSwitchDomain), hw::Amd4x4()));
  machines_.push_back(
      std::make_unique<hw::Machine>(engine_->domain(kClientDomain), hw::Amd4x4()));
  machines_.push_back(std::make_unique<hw::Machine>(
      engine_->domain(kBalancerDomain), hw::Amd4x4()));
  for (int b = 0; b < opts_.backends; ++b) {
    machines_.push_back(std::make_unique<hw::Machine>(
        engine_->domain(BackendDomain(b)), opts_.backend_spec));
  }

  fabric_ = std::make_unique<DcFabric>(*engine_, kSwitchDomain, switch_machine());

  const sim::Cycles irq_wire = switch_machine().cost().ipi_wire;

  // Client NIC: the reply path fans over kClientNicQueues RX queues so the
  // caller's drivers (cores 0..7) keep up with N backends' worth of
  // payload-bearing response frames (a full data frame costs ~23 cache-line
  // reads to pop).
  {
    net::SimNic::Config cfg;
    cfg.rx_descs = 4096;
    cfg.tx_descs = 4096;
    cfg.gbps = kUplinkGbps;
    cfg.queues = kClientNicQueues;
    for (int q = 0; q < kClientNicQueues; ++q) {
      cfg.irq_cores.push_back(q);
    }
    cfg.irq_latency = irq_wire;
    client_nic_ = std::make_unique<net::SimNic>(client_machine(), cfg);
  }

  // Balancer NIC: kBalancerQueues steering queues on cores 0..7 — every
  // client->VIP frame crosses the balancer, so steering capacity must scale
  // with the whole rack's request rate, not one backend's.
  {
    net::SimNic::Config cfg;
    cfg.rx_descs = 4096;
    cfg.tx_descs = 4096;
    cfg.gbps = kUplinkGbps;
    cfg.queues = kBalancerQueues;
    for (int q = 0; q < kBalancerQueues; ++q) {
      cfg.irq_cores.push_back(q);
    }
    cfg.irq_latency = irq_wire;
    balancer_nic_ = std::make_unique<net::SimNic>(balancer_machine(), cfg);
  }

  // Backend NICs: one RSS queue per serving shard, IRQs to the shard web
  // cores (4*i), RETA sized for runtime re-steering like sec54_failover.
  for (int b = 0; b < opts_.backends; ++b) {
    net::SimNic::Config cfg;
    cfg.rx_descs = 4096;
    cfg.tx_descs = 4096;
    cfg.gbps = kBackendGbps;
    cfg.queues = opts_.shards_per_backend;
    for (int s = 0; s < opts_.shards_per_backend; ++s) {
      cfg.irq_cores.push_back(4 * s);
    }
    cfg.reta_slots = 16 * opts_.shards_per_backend;
    cfg.irq_latency = irq_wire;
    backend_nics_.push_back(
        std::make_unique<net::SimNic>(backend_machine(b), cfg));
  }

  // Switch ports and the static L2 routes.
  const int client_port =
      fabric_->AddPort(kClientDomain, *client_nic_, kUplinkGbps,
                       kPortLatency, kUplinkPortQueues);
  fabric_->AddRoute(ClientMac(), client_port);
  const int balancer_port =
      fabric_->AddPort(kBalancerDomain, *balancer_nic_, kUplinkGbps,
                       kPortLatency, kUplinkPortQueues);
  fabric_->AddRoute(BalancerMac(), balancer_port);
  for (int b = 0; b < opts_.backends; ++b) {
    const int port = fabric_->AddPort(
        BackendDomain(b), *backend_nics_[static_cast<std::size_t>(b)],
        kBackendGbps, kPortLatency, kSwitchPortQueues);
    fabric_->AddRoute(BackendMac(b), port);
  }

  // Balancer management stack: receives the heartbeat datagrams the drive
  // loops hand over, feeds the membership service.
  balancer_stack_ = std::make_unique<net::NetStack>(
      balancer_machine(), kBalancerMgmtCore, kBalancerIp, BalancerMac());
  balancer_stack_->SetOutput([this](net::Packet p) -> sim::Task<> {
    (void)co_await balancer_nic_->DriverTxPush(kBalancerMgmtCore, std::move(p));
  });
  balancer_stack_->AddArp(kClientIp, ClientMac());

  ClusterMembership::Options mem_opts;
  mem_opts.backends = opts_.backends;
  mem_opts.port = kHeartbeatPort;
  membership_ = std::make_unique<ClusterMembership>(balancer_machine(),
                                                    *balancer_stack_, mem_opts);

  std::vector<net::MacAddr> macs;
  for (int b = 0; b < opts_.backends; ++b) {
    macs.push_back(BackendMac(b));
  }
  balancer_ = std::make_unique<L4Balancer>(balancer_machine(), *balancer_nic_,
                                           *membership_, std::move(macs), kVip);
  balancer_->SetMgmtStack(balancer_stack_.get());

  // Backend management stacks: heartbeat sources. TX-only in steady state.
  for (int b = 0; b < opts_.backends; ++b) {
    auto stack = std::make_unique<net::NetStack>(
        backend_machine(b), kBackendMgmtCore, BackendMgmtIp(b), BackendMac(b));
    stack->AddArp(kBalancerIp, BalancerMac());
    net::SimNic* nic = backend_nics_[static_cast<std::size_t>(b)].get();
    stack->SetOutput([nic](net::Packet p) -> sim::Task<> {
      (void)co_await nic->DriverTxPush(kBackendMgmtCore, std::move(p));
    });
    backend_mgmt_stacks_.push_back(std::move(stack));
  }
}

void ClusterTopology::Start(sim::Cycles horizon) {
  fabric_->Start();
  membership_->Start(horizon);
  for (int q = 0; q < kBalancerQueues; ++q) {
    engine_->domain(kBalancerDomain).Spawn(balancer_->Drive(q, q));
  }
  for (int b = 0; b < opts_.backends; ++b) {
    engine_->domain(BackendDomain(b))
        .Spawn(RunHeartbeatSender(backend_machine(b), kBackendMgmtCore,
                                  backend_mgmt_stack(b), b, /*incarnation=*/1,
                                  kBalancerIp, kHeartbeatPort, horizon));
  }
}

}  // namespace mk::cluster
