// mk::recover: the failover machinery layered over the fault injector —
// runtime RETA reprogramming and adopted-flow accounting in the NIC,
// epoch-numbered membership view changes driven by heartbeat exclusion,
// RecoveryConfig scoping and the Armed/Bound predicates, explicit HTTP
// admission/overload policy, DB replica re-pointing and respawn, and legacy
// TCP's unconditional replies: the two RST paths that let a survivor shed a
// dead shard's connection state (unknown-flow RST, abandoned-handshake RST)
// and the re-ACK of an out-of-order segment.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/db.h"
#include "apps/dbshard.h"
#include "apps/httpd.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "kernel/cpu_driver.h"
#include "monitor/monitor.h"
#include "net/nic.h"
#include "net/stack.h"
#include "net/wire.h"
#include "recover/config.h"
#include "recover/recover.h"
#include "sim/executor.h"
#include "skb/skb.h"

namespace mk {
namespace {

using kernel::CpuDriver;
using net::Ipv4Addr;
using net::MakeIp;
using net::Packet;
using sim::Cycles;
using sim::Task;

struct ScopedInjector {
  explicit ScopedInjector(const fault::FaultPlan& plan) : inj(plan) { inj.Install(); }
  ~ScopedInjector() { inj.Uninstall(); }
  fault::Injector inj;
};

// --- RecoveryConfig scoping ---

TEST(RecoveryConfig, ScopedOverrideRestoresOnExitAndNests) {
  const Cycles default_rto = recover::Config().tcp_rto;
  const int default_retx = recover::Config().tcp_max_retx;
  {
    recover::RecoveryConfig outer;
    outer.tcp_rto = 1'000'000;
    outer.tcp_max_retx = 4;
    recover::ScopedRecoveryConfig so(outer);
    EXPECT_EQ(recover::Config().tcp_rto, 1'000'000u);
    EXPECT_EQ(recover::Config().tcp_max_retx, 4);
    {
      recover::RecoveryConfig inner = recover::Config();
      inner.tcp_max_retx = 2;
      recover::ScopedRecoveryConfig si(inner);
      EXPECT_EQ(recover::Config().tcp_max_retx, 2);
      EXPECT_EQ(recover::Config().tcp_rto, 1'000'000u);  // outer still applies
    }
    // Inner scope restored the outer values, not the defaults.
    EXPECT_EQ(recover::Config().tcp_max_retx, 4);
    EXPECT_EQ(recover::Config().tcp_rto, 1'000'000u);
  }
  EXPECT_EQ(recover::Config().tcp_rto, default_rto);
  EXPECT_EQ(recover::Config().tcp_max_retx, default_retx);
}

TEST(RecoveryConfig, BoundIsForeverUnlessAnInjectorIsInstalled) {
  ASSERT_EQ(fault::Injector::active(), nullptr);
  EXPECT_FALSE(recover::Armed());
  EXPECT_EQ(recover::Bound(1234), sim::kForever);
  {
    fault::FaultPlan plan;
    ScopedInjector s(plan);
    EXPECT_TRUE(recover::Armed());
    EXPECT_EQ(recover::Bound(1234), 1234u);
  }
  EXPECT_FALSE(recover::Armed());
  EXPECT_EQ(recover::Bound(1234), sim::kForever);
}

// --- NIC RSS indirection table ---

const net::MacAddr kMacA{0x02, 0, 0, 0, 0, 0xaa};
const net::MacAddr kMacB{0x02, 0, 0, 0, 0, 0xbb};
constexpr Ipv4Addr kIpA = MakeIp(10, 0, 0, 1);
constexpr Ipv4Addr kIpB = MakeIp(10, 0, 0, 2);

Packet UdpFrame(Ipv4Addr src, Ipv4Addr dst, std::uint16_t port, std::size_t bytes) {
  net::EthHeader eth{kMacB, kMacA, net::kEtherTypeIpv4};
  net::IpHeader ip;
  ip.protocol = net::kIpProtoUdp;
  ip.src = src;
  ip.dst = dst;
  std::vector<std::uint8_t> data(bytes, 0x5a);
  return net::BuildUdpFrame(eth, ip, net::UdpHeader{1, port, 0}, data.data(),
                            data.size());
}

TEST(Reta, FineGrainedTableIsIdenticalToDirectModuloSteering) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Intel2x4());
  net::SimNic::Config direct;
  direct.queues = 4;  // reta_slots = 0: `queues` identity slots
  net::SimNic::Config fine = direct;
  fine.reta_slots = 64;  // failover-grade table, 16 slots per queue
  net::SimNic nic_direct(m, direct);
  net::SimNic nic_fine(m, fine);
  ASSERT_EQ(nic_direct.reta_slots(), 4);
  ASSERT_EQ(nic_fine.reta_slots(), 64);
  for (int slot = 0; slot < nic_fine.reta_slots(); ++slot) {
    EXPECT_EQ(nic_fine.reta_entry(slot), slot % 4);
  }
  // Every flow steers identically: (h % 64) % 4 == h % 4.
  for (std::uint16_t p = 1000; p < 1256; ++p) {
    Packet f = UdpFrame(kIpA, kIpB, p, 64);
    EXPECT_EQ(nic_fine.RssQueueFor(f), nic_direct.RssQueueFor(f)) << "port " << p;
  }
}

TEST(Reta, ResteerSpreadsTheDeadQueueAcrossAllSurvivors) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Intel2x4());
  net::SimNic::Config cfg;
  cfg.queues = 4;
  cfg.reta_slots = 64;
  net::SimNic nic(m, cfg);
  std::vector<int> survivors{0, 1, 3};
  EXPECT_EQ(nic.ResteerQueue(/*dead_queue=*/2, survivors), 16);
  int count[4] = {0, 0, 0, 0};
  for (int slot = 0; slot < nic.reta_slots(); ++slot) {
    ++count[nic.reta_entry(slot)];
  }
  EXPECT_EQ(count[2], 0);  // no slot names the dead queue
  EXPECT_EQ(count[0] + count[1] + count[3], 64);
  // Round-robin: each survivor absorbed its fair share of the 16 orphaned
  // slots (16/3 -> at most one extra on any survivor), not 2x on one.
  for (int q : survivors) {
    EXPECT_GE(count[q], 16 + 5) << "queue " << q;
    EXPECT_LE(count[q], 16 + 6) << "queue " << q;
  }
  // Steering never picks the dead queue again.
  for (std::uint16_t p = 1000; p < 1200; ++p) {
    EXPECT_NE(nic.RssQueueFor(UdpFrame(kIpA, kIpB, p, 64)), 2);
  }
}

TEST(Reta, ResteeredFramesCountAsAdoptedOnTheSurvivorQueue) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Intel2x4());
  net::SimNic::Config cfg;
  cfg.queues = 4;
  cfg.reta_slots = 64;
  net::SimNic nic(m, cfg);
  // One flow that defaults to the doomed queue 2, one that defaults to 0.
  std::uint16_t port_q2 = 0;
  std::uint16_t port_q0 = 0;
  for (std::uint16_t p = 1000; p < 1400; ++p) {
    int q = nic.RssQueueFor(UdpFrame(kIpA, kIpB, p, 64));
    if (q == 2 && port_q2 == 0) {
      port_q2 = p;
    }
    if (q == 0 && port_q0 == 0) {
      port_q0 = p;
    }
  }
  ASSERT_NE(port_q2, 0);
  ASSERT_NE(port_q0, 0);
  nic.ResteerQueue(2, {0, 1, 3});
  Packet orphan = UdpFrame(kIpA, kIpB, port_q2, 64);
  const int adopted_q = nic.RssQueueFor(orphan);
  ASSERT_NE(adopted_q, 2);
  exec.Spawn([](net::SimNic& n, Packet a, Packet b) -> Task<> {
    co_await n.InjectFromWire(std::move(a));
    co_await n.InjectFromWire(std::move(b));
  }(nic, orphan, UdpFrame(kIpA, kIpB, port_q0, 64)));
  exec.Run();
  // The orphaned flow landed on a survivor and was counted as adopted; the
  // flow that always belonged to queue 0 was not.
  EXPECT_EQ(nic.queue_stats(2).rx_frames, 0u);
  EXPECT_EQ(nic.queue_stats(adopted_q).rx_adopted, 1u);
  EXPECT_EQ(nic.queue_stats(0).rx_frames + nic.queue_stats(1).rx_frames +
                nic.queue_stats(3).rx_frames,
            2u);
  std::uint64_t adopted_total = 0;
  for (int q = 0; q < 4; ++q) {
    adopted_total += nic.queue_stats(q).rx_adopted;
  }
  EXPECT_EQ(adopted_total, 1u);
}

// --- Membership view changes ---

struct MonitorFixture {
  MonitorFixture()
      : machine(exec, hw::Amd8x4()),
        drivers(CpuDriver::BootAll(machine)),
        skb(machine),
        sys(machine, skb, drivers) {
    skb.PopulateFromHardware();
    sys.Boot();
  }
  sim::Executor exec;
  hw::Machine machine;
  std::vector<std::unique_ptr<CpuDriver>> drivers;
  skb::Skb skb;
  monitor::MonitorSystem sys;
};

TEST(Membership, InitialViewReflectsBootedCoresAtEpochOne) {
  fault::FaultPlan plan;
  ScopedInjector s(plan);
  MonitorFixture f;
  recover::MembershipService svc(f.sys);
  EXPECT_EQ(svc.view().epoch, 1u);
  EXPECT_EQ(svc.view().NumLive(), f.machine.num_cores());
  EXPECT_EQ(svc.view_changes_committed(), 0u);
  f.exec.Spawn([](MonitorFixture& fx) -> Task<> {
    co_await fx.exec.Delay(monitor::kHeartbeatPeriod * 3);
    fx.sys.Shutdown();
  }(f));
  f.exec.Run();
  // Nothing died: no view change ever committed.
  EXPECT_EQ(svc.view().epoch, 1u);
  EXPECT_EQ(svc.view_changes_committed(), 0u);
}

TEST(Membership, HeartbeatExclusionCommitsAViewChangeAndNotifiesInOrder) {
  fault::FaultPlan plan;
  plan.HaltCore(13, /*at=*/10'000);
  ScopedInjector s(plan);
  MonitorFixture f;
  recover::MembershipService svc(f.sys);
  std::vector<int> order;
  std::vector<std::uint64_t> epochs;
  std::vector<int> dead_cores;
  svc.Subscribe([&](const recover::View& v, int dead) -> Task<> {
    order.push_back(1);
    epochs.push_back(v.epoch);
    dead_cores.push_back(dead);
    co_return;
  });
  svc.Subscribe([&](const recover::View& v, int dead) -> Task<> {
    order.push_back(2);
    EXPECT_EQ(v.epoch, epochs.back());  // both see the same committed view
    EXPECT_EQ(dead, dead_cores.back());
    co_return;
  });
  f.exec.Spawn([](MonitorFixture& fx) -> Task<> {
    co_await fx.exec.Delay(monitor::kHeartbeatPeriod * 6);
    fx.sys.Shutdown();
  }(f));
  f.exec.Run();
  EXPECT_EQ(svc.view_changes_committed(), 1u);
  EXPECT_EQ(svc.view().epoch, 2u);
  EXPECT_FALSE(svc.view().live[13]);
  EXPECT_EQ(svc.view().NumLive(), f.machine.num_cores() - 1);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // subscription order, not registration races
  EXPECT_EQ(order[1], 2);
  ASSERT_EQ(dead_cores.size(), 1u);
  EXPECT_EQ(dead_cores[0], 13);
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_EQ(epochs[0], 2u);
}

TEST(Membership, ConcurrentExclusionsCommitDistinctEpochsSerially) {
  fault::FaultPlan plan;
  plan.HaltCore(5, /*at=*/10'000);
  plan.HaltCore(9, /*at=*/10'000);
  ScopedInjector s(plan);
  MonitorFixture f;
  recover::MembershipService svc(f.sys);
  std::vector<std::uint64_t> epochs;
  std::vector<int> dead_cores;
  svc.Subscribe([&](const recover::View& v, int dead) -> Task<> {
    epochs.push_back(v.epoch);
    dead_cores.push_back(dead);
    co_return;
  });
  f.exec.Spawn([](MonitorFixture& fx) -> Task<> {
    co_await fx.exec.Delay(monitor::kHeartbeatPeriod * 8);
    fx.sys.Shutdown();
  }(f));
  f.exec.Run();
  // Two exclusions, two committed epochs, strictly increasing — the worker
  // serializes view changes rather than interleaving them.
  EXPECT_EQ(svc.view_changes_committed(), 2u);
  EXPECT_EQ(svc.view().epoch, 3u);
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0], 2u);
  EXPECT_EQ(epochs[1], 3u);
  ASSERT_EQ(dead_cores.size(), 2u);
  EXPECT_NE(dead_cores[0], dead_cores[1]);
  for (int dead : dead_cores) {
    EXPECT_TRUE(dead == 5 || dead == 9) << "unexpected dead core " << dead;
    EXPECT_FALSE(svc.view().live[static_cast<std::size_t>(dead)]);
  }
  EXPECT_EQ(svc.view().NumLive(), f.machine.num_cores() - 2);
}

// --- HTTP admission / overload policy ---

const net::MacAddr kSrvMac{0x02, 0, 0, 0, 0, 0x01};
const net::MacAddr kCliMac{0x02, 0, 0, 0, 0, 0x02};
constexpr Ipv4Addr kSrvIp = MakeIp(10, 1, 0, 1);
constexpr Ipv4Addr kCliIp = MakeIp(10, 1, 0, 2);

struct AdmissionFixture {
  AdmissionFixture()
      : machine(exec, hw::Amd2x2()),
        server_stack(machine, 0, kSrvIp, kSrvMac),
        client_stack(machine, 2, kCliIp, kCliMac),
        server(machine, server_stack, 80) {
    server_stack.AddArp(kCliIp, kCliMac);
    client_stack.AddArp(kSrvIp, kSrvMac);
    server_stack.SetOutput([this](Packet p) -> Task<> {
      co_await client_stack.Input(std::move(p));
    });
    client_stack.SetOutput([this](Packet p) -> Task<> {
      co_await server_stack.Input(std::move(p));
    });
  }

  // `count` clients, staggered so connection order is deterministic; returns
  // each client's full reply.
  std::vector<std::string> RunClients(int count) {
    std::vector<std::string> replies(static_cast<std::size_t>(count));
    exec.Spawn(server.Serve());
    for (int i = 0; i < count; ++i) {
      exec.Spawn([](AdmissionFixture& fx, int idx, std::string& out) -> Task<> {
        co_await fx.exec.Delay(static_cast<Cycles>(idx) * 5'000);
        net::NetStack::TcpConn* conn = co_await fx.client_stack.TcpConnect(kSrvIp, 80);
        co_await fx.client_stack.TcpSend(*conn, "GET /index.html HTTP/1.0\r\n\r\n");
        for (;;) {
          auto chunk = co_await conn->Read();
          if (chunk.empty() && conn->peer_closed) {
            break;
          }
          out.append(chunk.begin(), chunk.end());
        }
      }(*this, i, replies[static_cast<std::size_t>(i)]));
    }
    exec.Run();
    return replies;
  }

  static int CountPrefix(const std::vector<std::string>& replies,
                         const std::string& prefix) {
    int n = 0;
    for (const std::string& r : replies) {
      n += (r.rfind(prefix, 0) == 0) ? 1 : 0;
    }
    return n;
  }

  sim::Executor exec;
  hw::Machine machine;
  net::NetStack server_stack;
  net::NetStack client_stack;
  apps::HttpServer server;
};

TEST(Admission, FullQueueSheds503ImmediatelyAndEveryClientGetsAnAnswer) {
  AdmissionFixture f;
  f.server.SetAdmission({/*workers=*/1, /*max_pending=*/1, /*queue_deadline=*/0});
  std::vector<std::string> replies = f.RunClients(4);
  const int ok = AdmissionFixture::CountPrefix(replies, "HTTP/1.0 200");
  const int shed = AdmissionFixture::CountPrefix(replies, "HTTP/1.0 503");
  // No client is left hanging: every connection is answered, served or shed.
  EXPECT_EQ(ok + shed, 4);
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(f.server.requests_served(), static_cast<std::uint64_t>(ok));
  EXPECT_EQ(f.server.shed_queue_full(), static_cast<std::uint64_t>(shed));
  EXPECT_EQ(f.server.shed_deadline(), 0u);
}

TEST(Admission, StaleQueuedConnectionsAreShedAtDequeueNotServedLate) {
  AdmissionFixture f;
  // Deep queue, tight deadline: nothing is refused at the door, but anything
  // that waited behind a full request_cost (60k) is shed when dequeued.
  f.server.SetAdmission({/*workers=*/1, /*max_pending=*/8, /*queue_deadline=*/40'000});
  std::vector<std::string> replies = f.RunClients(4);
  const int ok = AdmissionFixture::CountPrefix(replies, "HTTP/1.0 200");
  const int shed = AdmissionFixture::CountPrefix(replies, "HTTP/1.0 503");
  EXPECT_EQ(ok + shed, 4);
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(f.server.shed_queue_full(), 0u);
  EXPECT_EQ(f.server.shed_deadline(), static_cast<std::uint64_t>(shed));
}

// --- DB replica failover ---

TEST(DbFailover, CoreFailureRepointsToTheNearestFollowingLiveReplica) {
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd4x4());
  apps::Database source;
  apps::PopulateTpcw(&source, 50);
  apps::DbReplicaCluster cluster(machine, source, {{0, 1}, {4, 5}, {8, 9}});
  for (int sh = 0; sh < 3; ++sh) {
    exec.Spawn(cluster.Serve(sh));
  }
  std::string before;
  std::string after;
  exec.Spawn([](apps::DbReplicaCluster& c, std::string& pre, std::string& post) -> Task<> {
    pre = co_await c.Query(1, apps::TpcwQuery(7));
    // Shard 1's replica core dies: membership hands the cluster the dead core.
    std::vector<int> repointed = c.HandleCoreFailure(5);
    EXPECT_EQ(repointed.size(), 1u);
    if (!repointed.empty()) {
      EXPECT_EQ(repointed[0], 1);
    }
    EXPECT_TRUE(c.replica_dead(1));
    EXPECT_EQ(c.redirect(1), 2);  // nearest following live replica
    EXPECT_EQ(c.redirect(0), 0);  // untouched shards stay home
    EXPECT_EQ(c.redirect(2), 2);
    post = co_await c.Query(1, apps::TpcwQuery(7));
    co_await c.Shutdown();
  }(cluster, before, after));
  exec.Run();
  EXPECT_FALSE(before.empty());
  EXPECT_EQ(before, after);  // the stand-in replica answers identically
  // The redirected query was served by replica 2, not the dead replica 1.
  EXPECT_EQ(cluster.queries_served(1), 1u);
  EXPECT_EQ(cluster.queries_served(2), 1u);
}

TEST(DbFailover, RespawnRestoresTheHomeReplicaWithAFreshIncarnation) {
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd4x4());
  apps::Database source;
  apps::PopulateTpcw(&source, 50);
  apps::DbReplicaCluster cluster(machine, source, {{0, 1}, {4, 5}, {8, 9}});
  for (int sh = 0; sh < 3; ++sh) {
    exec.Spawn(cluster.Serve(sh));
  }
  std::string answer;
  exec.Spawn([](hw::Machine& m, apps::DbReplicaCluster& c, std::string& out) -> Task<> {
    (void)c.HandleCoreFailure(5);
    const std::uint64_t inc_before = c.incarnation(1);
    const bool ok = co_await c.Respawn(/*shard=*/1, /*spare_db_core=*/13);
    EXPECT_TRUE(ok);
    EXPECT_FALSE(c.replica_dead(1));
    EXPECT_EQ(c.redirect(1), 1);  // pointed home again
    EXPECT_EQ(c.incarnation(1), inc_before + 1);
    EXPECT_EQ(c.respawns(), 1u);
    EXPECT_EQ(c.placement(1).db_core, 13);
    m.exec().Spawn(c.Serve(1));  // the replacement replica's server process
    out = co_await c.Query(1, apps::TpcwQuery(7));
    co_await c.Shutdown();
  }(machine, cluster, answer));
  exec.Run();
  EXPECT_NE(answer.find("item-7"), std::string::npos);
  // Served by the respawned home replica (fresh Shard, fresh counter).
  EXPECT_EQ(cluster.queries_served(1), 1u);
}

TEST(DbFailover, RespawnCopiesTheLiveDonorAndGatesQueriesUntilCaughtUp) {
  // Two regressions from the store PR's bugfix sweep, pinned together:
  // 1. Respawn used to copy the construction-time source_, silently
  //    resurrecting the boot image — rows the donor gained since boot
  //    vanished from the replacement with no error.
  // 2. The replacement was installed before its state transfer completed and
  //    would serve the stale snapshot; a query routed to it mid-transfer must
  //    instead wait on the caught-up gate.
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd4x4());
  apps::Database source;
  apps::PopulateTpcw(&source, 50);
  apps::DbReplicaCluster cluster(machine, source, {{0, 1}, {4, 5}, {8, 9}});
  for (int sh = 0; sh < 3; ++sh) {
    exec.Spawn(cluster.Serve(sh));
  }
  std::string answer;
  bool respawn_ok = false;
  exec.Spawn([](hw::Machine& m, apps::DbReplicaCluster& c, std::string& out,
                bool& ok) -> Task<> {
    (void)c.HandleCoreFailure(5);  // shard 1 dies; redirect -> shard 2
    EXPECT_EQ(c.redirect(1), 2);
    // The donor diverges from the boot image before the respawn: the
    // replacement must end up with THIS row, not the source_ snapshot.
    c.replica_db_for_test(2).Exec(
        "INSERT INTO items VALUES (999, 'item-999', 0, 1, 1)");
    m.exec().Spawn([](hw::Machine& m2, apps::DbReplicaCluster& c2, bool& ok2) -> Task<> {
      ok2 = co_await c2.Respawn(/*shard=*/1, /*spare_db_core=*/13);
      m2.exec().Spawn(c2.Serve(1));
    }(m, c, ok));
    co_await m.exec().Delay(1'000);  // the respawn is now mid-transfer
    // The donor dies too: shards whose redirect pointed at it re-resolve, and
    // shard 1's lands on the freshly installed (NOT yet caught-up) replica.
    (void)c.HandleCoreFailure(9);
    EXPECT_EQ(c.redirect(1), 1);
    EXPECT_FALSE(c.replica_caught_up(1));
    // This query reaches the gated replica mid-transfer: it must wait for the
    // catch-up, then serve the donor's diverged row.
    out = co_await c.Query(1, apps::TpcwQuery(999));
    co_await c.Shutdown();
  }(machine, cluster, answer, respawn_ok));
  exec.Run();
  EXPECT_TRUE(respawn_ok);
  EXPECT_TRUE(cluster.replica_caught_up(1));
  EXPECT_NE(answer.find("item-999"), std::string::npos)
      << "respawned replica served the boot image, not the donor's live state";
  EXPECT_EQ(cluster.queries_served(1), 1u);
}

// --- Legacy TCP replies ---
//
// RST for unknown flows and abandoned handshakes, re-ACK for out-of-order
// segments. All three are unconditional: an installed injector changes none.

Packet TcpSegmentToB(std::uint16_t src_port, std::uint32_t seq, std::uint32_t ack,
                     net::TcpFlags flags, const std::string& payload) {
  net::EthHeader eth{kMacB, kMacA, net::kEtherTypeIpv4};
  net::IpHeader ip;
  ip.protocol = net::kIpProtoTcp;
  ip.src = kIpA;
  ip.dst = kIpB;
  net::TcpHeader tcp;
  tcp.src_port = src_port;
  tcp.dst_port = 80;
  tcp.seq = seq;
  tcp.ack = ack;
  tcp.flags = flags;
  return net::BuildTcpFrame(eth, ip, tcp,
                            reinterpret_cast<const std::uint8_t*>(payload.data()),
                            payload.size());
}

// The mirror image: a payload-less segment from host B's port 80 to host A.
Packet TcpSegmentToA(std::uint16_t dst_port, std::uint32_t seq, std::uint32_t ack,
                     net::TcpFlags flags) {
  net::EthHeader eth{kMacA, kMacB, net::kEtherTypeIpv4};
  net::IpHeader ip;
  ip.protocol = net::kIpProtoTcp;
  ip.src = kIpB;
  ip.dst = kIpA;
  net::TcpHeader tcp;
  tcp.src_port = 80;
  tcp.dst_port = dst_port;
  tcp.seq = seq;
  tcp.ack = ack;
  tcp.flags = flags;
  return net::BuildTcpFrame(eth, ip, tcp, nullptr, 0);
}

// A legacy stack on host B listening on port 80 that records what it sends.
struct RecordingServer {
  RecordingServer() : m(exec, hw::Amd2x2()), stack(m, 0, kIpB, kMacB) {
    stack.AddArp(kIpA, kMacA);
    stack.TcpListen(80);
    stack.SetOutput([this](Packet p) -> Task<> {
      outs.push_back(std::move(p));
      co_return;
    });
  }
  void Input(Packet frame) {
    exec.Spawn([](net::NetStack& st, Packet f) -> Task<> {
      co_await st.Input(std::move(f));
    }(stack, std::move(frame)));
    exec.Run();
  }
  sim::Executor exec;
  hw::Machine m;
  net::NetStack stack;
  std::vector<Packet> outs;
};

TEST(FailoverRst, UnknownFlowSegmentDrawsRstWithOrWithoutAnInjector) {
  RecordingServer srv;
  // A mid-flow segment from a connection this stack has never seen — what a
  // survivor receives the instant the RETA re-steers a dead shard's flow.
  const Packet orphan =
      TcpSegmentToB(5555, /*seq=*/1000, /*ack=*/2000, {.ack = true}, "GET");
  auto expect_rst = [&srv](std::size_t rsts, std::uint16_t dst_port,
                           std::uint32_t seq, std::uint32_t ack) {
    ASSERT_EQ(srv.outs.size(), rsts);
    EXPECT_EQ(srv.stack.tcp_rsts_sent(), rsts);
    auto parsed = net::ParseFrame(srv.outs.back());
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->tcp.has_value());
    EXPECT_TRUE(parsed->tcp->flags.rst);
    EXPECT_EQ(parsed->tcp->src_port, 80);
    EXPECT_EQ(parsed->tcp->dst_port, dst_port);
    EXPECT_EQ(parsed->tcp->seq, seq);
    EXPECT_EQ(parsed->tcp->ack, ack);
  };
  srv.Input(orphan);
  expect_rst(1, 5555, /*seq=*/2000, /*ack=*/1000 + 3);  // the segment's ack; seq + payload
  {
    fault::FaultPlan plan;
    ScopedInjector s(plan);
    srv.Input(orphan);
    expect_rst(2, 5555, 2000, 1000 + 3);
  }
  // Only a bare SYN opens a connection on the listener. A SYN+ACK is an
  // unknown segment like any other (its SYN takes one sequence number)...
  srv.Input(TcpSegmentToB(5556, /*seq=*/3000, /*ack=*/4000, {.syn = true, .ack = true}, ""));
  expect_rst(3, 5556, /*seq=*/4000, /*ack=*/3000 + 1);
  // ...and a SYN+RST draws no reply at all.
  srv.Input(TcpSegmentToB(5557, /*seq=*/6000, /*ack=*/0, {.syn = true, .rst = true}, ""));
  EXPECT_EQ(srv.outs.size(), 3u);
  EXPECT_EQ(srv.stack.tcp_rsts_sent(), 3u);
  EXPECT_TRUE(srv.stack.TcpListen(80).accepted.empty());
  EXPECT_EQ(srv.stack.conn_table().live(), 0u);
  EXPECT_EQ(srv.exec.pending_events(), 0u);
}

// A bounded connect against a black-holed server gives up; the server, slow
// rather than dead, then answers the SYN late. The abandoned connection must
// answer with RST instead of completing a half-open handshake nobody will
// ever use (which would pin a server admission worker forever).
void ExpectLateSynAckDrawsRst() {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd2x2());
  net::NetStack client(m, 0, kIpA, kMacA);
  client.AddArp(kIpB, kMacB);
  std::vector<Packet> outs;
  client.SetOutput([&outs](Packet p) -> Task<> {
    outs.push_back(std::move(p));
    co_return;
  });
  bool connect_failed = false;
  exec.Spawn([](net::NetStack& cli, std::vector<Packet>& sent, bool& failed) -> Task<> {
    net::NetStack::TcpConn* conn =
        co_await cli.TcpConnect(kIpB, 80, /*timeout=*/100'000);
    failed = (conn == nullptr);
    if (sent.empty()) {
      ADD_FAILURE() << "bounded connect never emitted a SYN";
      co_return;
    }
    auto syn = net::ParseFrame(sent.front());
    if (!syn.has_value() || !syn->tcp.has_value() || !syn->tcp->flags.syn) {
      ADD_FAILURE() << "first emitted frame was not a SYN";
      co_return;
    }
    const std::size_t outs_before = sent.size();
    co_await cli.Input(TcpSegmentToA(syn->tcp->src_port, /*seq=*/0xBEEF,
                                     /*ack=*/syn->tcp->seq + 1, {.syn = true, .ack = true}));
    EXPECT_EQ(sent.size(), outs_before + 1);
    auto rst = net::ParseFrame(sent.back());
    if (!rst.has_value() || !rst->tcp.has_value()) {
      ADD_FAILURE() << "no parseable answer to the late SYN-ACK";
      co_return;
    }
    EXPECT_TRUE(rst->tcp->flags.rst);
    EXPECT_EQ(rst->tcp->seq, syn->tcp->seq + 1);  // the SYN-ACK's ack field
  }(client, outs, connect_failed));
  exec.Run();
  EXPECT_TRUE(connect_failed);
  EXPECT_EQ(client.tcp_rsts_sent(), 1u);
  EXPECT_EQ(client.tcp_retransmits(), 0u);
  // Regression for the abandonment path: under an injector the lapsed
  // deadline also cancels the SYN's retransmit timer, so nothing is left
  // armed on the wheel and no event or task outlives the run.
  EXPECT_EQ(client.wheel().armed(), 0u);
  EXPECT_EQ(exec.pending_events(), 0u);
  EXPECT_EQ(exec.live_tasks(), 0u);
}

TEST(FailoverRst, LateSynAckForAnAbandonedHandshakeIsAnsweredWithRst) {
  ExpectLateSynAckDrawsRst();  // plain run: no retransmit timer
  fault::FaultPlan plan;
  ScopedInjector s(plan);
  ExpectLateSynAckDrawsRst();  // armed: the SYN's retransmit timer arms too
}

// A RST answering a legacy SYN while recovery is armed cancels the SYN's
// retransmit timer and the connect deadline at once: nothing is resent.
TEST(LegacyTcp, RstAnsweringTheSynCancelsItsTimersAtOnce) {
  fault::FaultPlan plan;
  ScopedInjector s(plan);
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd2x2());
  net::NetStack client(m, 0, kIpA, kMacA);
  client.AddArp(kIpB, kMacB);
  std::vector<Packet> outs;
  client.SetOutput([&outs](Packet p) -> Task<> {
    outs.push_back(std::move(p));
    co_return;
  });
  bool refused = false;
  exec.Spawn([](net::NetStack& cli, bool& failed) -> Task<> {
    net::NetStack::TcpConn* conn = co_await cli.TcpConnect(kIpB, 80, /*timeout=*/1'000'000);
    failed = conn == nullptr;
  }(client, refused));
  exec.Spawn([](sim::Executor& ex, net::NetStack& cli,
                std::vector<Packet>& sent) -> Task<> {
    co_await ex.Delay(10'000);
    EXPECT_EQ(cli.wheel().armed(), 2u);  // the SYN's retransmit and the deadline
    if (sent.size() != 1) {
      ADD_FAILURE() << "expected exactly the SYN on the wire, saw " << sent.size();
      co_return;
    }
    auto syn = net::ParseFrame(sent.front());
    if (!syn.has_value() || !syn->tcp.has_value() || !syn->tcp->flags.syn) {
      ADD_FAILURE() << "first emitted frame was not a SYN";
      co_return;
    }
    co_await cli.Input(TcpSegmentToA(syn->tcp->src_port, /*seq=*/0,
                                     /*ack=*/syn->tcp->seq + 1, {.ack = true, .rst = true}));
    EXPECT_EQ(cli.wheel().armed(), 0u);
  }(exec, client, outs));
  exec.Run();
  EXPECT_TRUE(refused);
  EXPECT_EQ(client.tcp_rsts_received(), 1u);
  EXPECT_EQ(client.tcp_retransmits(), 0u);
  EXPECT_EQ(outs.size(), 1u);  // the SYN only: no resend, no RST back
  EXPECT_EQ(client.wheel().fired(), 0u);
  EXPECT_EQ(exec.pending_events(), 0u);
  EXPECT_EQ(exec.live_tasks(), 0u);
}

TEST(LegacyTcp, OutOfOrderSegmentIsReAckedWithoutAnInjector) {
  ASSERT_EQ(fault::Injector::active(), nullptr);
  RecordingServer srv;
  // The legacy server completes accept on the SYN: SYN-ACK seq 5000, and it
  // expects client byte 1001 next.
  srv.Input(TcpSegmentToB(5555, /*seq=*/1000, /*ack=*/0, {.syn = true}, ""));
  ASSERT_EQ(srv.outs.size(), 1u);
  // Data past a hole (bytes 1001..1100 never arrived).
  srv.Input(TcpSegmentToB(5555, /*seq=*/1101, /*ack=*/5001, {.ack = true}, "late"));
  ASSERT_EQ(srv.outs.size(), 2u);
  auto reack = net::ParseFrame(srv.outs.back());
  ASSERT_TRUE(reack.has_value());
  ASSERT_TRUE(reack->tcp.has_value());
  EXPECT_TRUE(reack->tcp->flags.ack);
  EXPECT_FALSE(reack->tcp->flags.syn);
  EXPECT_FALSE(reack->tcp->flags.rst);
  EXPECT_EQ(reack->payload_len, 0u);
  EXPECT_EQ(reack->tcp->ack, 1001u);  // re-announces rcv_nxt, unmoved
  EXPECT_EQ(reack->tcp->seq, 5001u);
  EXPECT_EQ(srv.exec.pending_events(), 0u);
}

}  // namespace
}  // namespace mk
