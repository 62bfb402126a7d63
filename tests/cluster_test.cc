// src/cluster/ unit coverage: DcFabric MAC routing, L4Balancer rendezvous
// steering consistency, ClusterMembership epochs and incarnation fencing,
// and an end-to-end one-backend rack smoke (heartbeats crossing the real
// switch keep the view all-live).
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/balancer.h"
#include "cluster/fabric.h"
#include "cluster/membership.h"
#include "cluster/topology.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/nic.h"
#include "net/stack.h"
#include "net/wire.h"
#include "sim/executor.h"
#include "sim/parallel.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk {
namespace {

using sim::Cycles;
using sim::Task;

net::SimNic::Config HostNicConfig() {
  net::SimNic::Config cfg;
  cfg.gbps = 100.0;
  cfg.irq_cores = {0};
  return cfg;
}

// --- DcFabric -------------------------------------------------------------

TEST(DcFabricTest, RoutesByMacAndDropsUnknownDestinations) {
  sim::ParallelEngine::Options eopts;
  eopts.domains = 3;
  sim::ParallelEngine engine(eopts);
  hw::Machine sw(engine.domain(0), hw::Amd4x4());
  hw::Machine host_a(engine.domain(1), hw::Amd2x2());
  hw::Machine host_b(engine.domain(2), hw::Amd2x2());
  net::SimNic nic_a(host_a, HostNicConfig());
  net::SimNic nic_b(host_b, HostNicConfig());

  cluster::DcFabric fabric(engine, 0, sw);
  const int port_a = fabric.AddPort(1, nic_a, 100.0, 5'000);
  const int port_b = fabric.AddPort(2, nic_b, 100.0, 5'000);
  const net::MacAddr mac_b{2, 0, 0, 0, 0, 9};
  fabric.AddRoute(mac_b, port_b);
  (void)port_a;
  fabric.Start();

  struct Send {
    static Task<> Run(net::SimNic& nic, net::MacAddr dst) {
      net::Packet p(64, 0);
      for (std::size_t i = 0; i < 6; ++i) {
        p[i] = dst[i];
      }
      (void)co_await nic.DriverTxPush(0, std::move(p));
    }
  };
  struct Recv {
    static Task<> Run(hw::Machine& m, net::SimNic& nic, int* got) {
      while (*got == 0) {
        if (nic.RxReady()) {
          nic.SetInterruptsEnabled(0, false);
          auto frame = co_await nic.DriverRxPop(0);
          if (frame) {
            ++*got;
          }
          continue;
        }
        co_await m.exec().Delay(1);
      }
    }
  };

  int got = 0;
  engine.domain(1).Spawn(Send::Run(nic_a, mac_b));
  engine.domain(1).Spawn(Send::Run(nic_a, net::MacAddr{6, 6, 6, 6, 6, 6}));
  engine.domain(2).Spawn(Recv::Run(host_b, nic_b, &got));
  engine.Run();

  EXPECT_EQ(got, 1);
  EXPECT_EQ(fabric.forwarded(), 1u);
  EXPECT_EQ(fabric.unknown_dst_drops(), 1u);
}

// --- L4Balancer steering + ClusterMembership ------------------------------

// Balancer world on one executor: membership fed directly via OnHeartbeat.
struct SteerWorld {
  SteerWorld(int backends)
      : machine(exec, hw::Amd4x4()),
        nic(machine, HostNicConfig()),
        stack(machine, 0, cluster::ClusterTopology::kBalancerIp,
              cluster::ClusterTopology::BalancerMac(), net::StackCosts{}),
        membership(machine, stack, {.backends = backends, .port = 7100}) {
    std::vector<net::MacAddr> macs;
    for (int b = 0; b < backends; ++b) {
      macs.push_back(cluster::ClusterTopology::BackendMac(b));
    }
    balancer = std::make_unique<cluster::L4Balancer>(
        machine, nic, membership, macs, cluster::ClusterTopology::kVip);
  }

  sim::Executor exec;
  hw::Machine machine;
  net::SimNic nic;
  net::NetStack stack;
  cluster::ClusterMembership membership;
  std::unique_ptr<cluster::L4Balancer> balancer;
};

net::FlowTuple Tuple(std::uint16_t src_port) {
  net::FlowTuple t;
  t.src_ip = cluster::ClusterTopology::kClientIp;
  t.dst_ip = cluster::ClusterTopology::kVip;
  t.src_port = src_port;
  t.dst_port = 80;
  t.proto = 6;
  return t;
}

TEST(L4BalancerTest, PickBackendIsDeterministicAndBalanced) {
  SteerWorld w(4);
  std::vector<int> counts(4, 0);
  for (int p = 0; p < 256; ++p) {
    const int b = w.balancer->PickBackend(Tuple(static_cast<std::uint16_t>(1000 + p)));
    ASSERT_GE(b, 0);
    ASSERT_LT(b, 4);
    // Pure function of the tuple: repeated picks agree.
    EXPECT_EQ(w.balancer->PickBackend(Tuple(static_cast<std::uint16_t>(1000 + p))), b);
    ++counts[static_cast<std::size_t>(b)];
  }
  for (int b = 0; b < 4; ++b) {
    EXPECT_GT(counts[static_cast<std::size_t>(b)], 0) << "backend " << b;
  }
}

TEST(L4BalancerTest, DeathMovesOnlyTheDeadBackendsFlows) {
  SteerWorld w(4);
  const int kFlows = 256;
  std::vector<int> before;
  for (int p = 0; p < kFlows; ++p) {
    before.push_back(w.balancer->PickBackend(Tuple(static_cast<std::uint16_t>(p))));
  }

  // Run the sweep with heartbeats for every backend except 2: it is declared
  // dead after the timeout, everyone else stays live.
  struct Feed {
    static Task<> Run(SteerWorld& w, Cycles horizon) {
      std::uint64_t seq = 0;
      while (w.exec.now() < horizon) {
        ++seq;
        for (int b = 0; b < 4; ++b) {
          if (b != 2) {
            w.membership.OnHeartbeat(static_cast<std::uint32_t>(b), 1, seq,
                                     w.exec.now());
          }
        }
        co_await w.exec.Delay(100'000);
      }
    }
  };
  w.membership.Start(/*horizon=*/1'000'000);
  w.exec.Spawn(Feed::Run(w, 1'000'000));
  w.exec.Run();

  EXPECT_FALSE(w.membership.view().live[2]);
  EXPECT_EQ(w.membership.view().epoch, 2u);
  EXPECT_EQ(w.membership.view_changes(), 1u);

  int moved = 0;
  for (int p = 0; p < kFlows; ++p) {
    const int after = w.balancer->PickBackend(Tuple(static_cast<std::uint16_t>(p)));
    ASSERT_NE(after, 2);
    if (before[static_cast<std::size_t>(p)] == 2) {
      ++moved;
    } else {
      // Rendezvous property: surviving backends keep their flows.
      EXPECT_EQ(after, before[static_cast<std::size_t>(p)]) << "flow " << p;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(ClusterMembershipTest, FencesStaleSeqAndDeadIncarnations) {
  SteerWorld w(2);
  auto& m = w.membership;

  m.OnHeartbeat(0, 1, 1, 0);
  EXPECT_EQ(m.heartbeats_accepted(), 1u);
  // Duplicate / reordered seq within the incarnation: dropped as stale.
  m.OnHeartbeat(0, 1, 1, 10);
  EXPECT_EQ(m.heartbeats_accepted(), 1u);
  EXPECT_EQ(m.stale_dropped(), 1u);
  // A higher incarnation resets the sequence fence.
  m.OnHeartbeat(0, 2, 1, 20);
  EXPECT_EQ(m.heartbeats_accepted(), 2u);
  // A lower incarnation is stale.
  m.OnHeartbeat(0, 1, 99, 30);
  EXPECT_EQ(m.stale_dropped(), 2u);
  // Out-of-range id never crashes, only counts.
  m.OnHeartbeat(7, 1, 1, 40);
  EXPECT_EQ(m.stale_dropped(), 3u);

  // Let backend 1 die (no beats at all); subscribers see exactly one change.
  int deaths = 0;
  int dead_id = -1;
  m.Subscribe([&](const recover::View& v, int dead) {
    ++deaths;
    dead_id = dead;
    EXPECT_EQ(v.NumLive(), 1);
  });
  struct Feed {
    static Task<> Run(SteerWorld& w, Cycles horizon) {
      std::uint64_t seq = 100;
      while (w.exec.now() < horizon) {
        ++seq;
        w.membership.OnHeartbeat(0, 2, seq, w.exec.now());
        co_await w.exec.Delay(100'000);
      }
    }
  };
  m.Start(/*horizon=*/1'000'000);
  w.exec.Spawn(Feed::Run(w, 1'000'000));
  w.exec.Run();

  EXPECT_EQ(deaths, 1);
  EXPECT_EQ(dead_id, 1);
  // Once dead, even a matching-incarnation beat never resurrects.
  const std::uint64_t stale_before = m.stale_dropped();
  m.OnHeartbeat(1, 1, 1000, 2'000'000);
  EXPECT_EQ(m.stale_dropped(), stale_before + 1);
  EXPECT_FALSE(m.view().live[1]);
  EXPECT_EQ(m.view().epoch, 2u);
}

// --- End-to-end rack smoke ------------------------------------------------

// One backend, real switch, real heartbeat datagrams: after 2M cycles the
// view is still all-live and beats crossed the fabric.
TEST(ClusterTopologyTest, OneBackendRackHeartbeatsKeepViewLive) {
  cluster::ClusterTopology::Options opts;
  opts.backends = 1;
  opts.shards_per_backend = 2;
  cluster::ClusterTopology topo(opts);
  topo.Start(/*horizon=*/2'000'000);
  topo.engine().Run();

  EXPECT_EQ(topo.membership().view().epoch, 1u);
  EXPECT_TRUE(topo.membership().view().live[0]);
  EXPECT_EQ(topo.membership().stale_dropped(), 0u);
  // ~one beat per 100k for 2M, minus ramp: comfortably more than 10.
  EXPECT_GT(topo.membership().heartbeats_accepted(), 10u);
  // Every accepted beat was switched once (backend port in, balancer port
  // out) and reached the balancer as a management frame.
  EXPECT_GE(topo.fabric().forwarded(),
            topo.membership().heartbeats_accepted());
  EXPECT_EQ(topo.fabric().unknown_dst_drops(), 0u);
  EXPECT_EQ(topo.balancer().mgmt_frames(), topo.fabric().forwarded());
}

}  // namespace
}  // namespace mk
