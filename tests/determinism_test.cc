// Determinism regression: one workload, one schedule.
//
// The executor guarantees that events tied at a timestamp dispatch in global
// insertion order (near-tier FIFO buckets; far-tier (time, sequence) heap;
// eager far-to-near migration), so an identical workload must produce a
// bit-identical run. The workload here is the Figure 8 shape — two-phase
// commit capability retypes driven by the monitors of an 8x4-core machine —
// because it exercises every scheduling path at once: URPC channels, LRPC
// endpoints, IPI fan-out, SKB-planned multicast, plain delays, and timed
// waits. Any change that perturbs event ordering (a queue rewrite, a new
// tie-break rule, a stray source of nondeterminism) fails this test.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/fault.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "kernel/cpu_driver.h"
#include "monitor/monitor.h"
#include "net/nic.h"
#include "net/stack.h"
#include "net/wire.h"
#include "sim/executor.h"
#include "skb/skb.h"
#include "trace/trace.h"

namespace mk {
namespace {

using kernel::CpuDriver;
using monitor::Protocol;
using sim::Cycles;
using sim::Task;

struct System {
  System() : machine(exec, hw::Amd8x4()), drivers(CpuDriver::BootAll(machine)),
             skb(machine), sys(machine, skb, drivers) {
    skb.PopulateFromHardware();
    exec.Spawn(skb.MeasureUrpcLatencies());
    exec.Run();
    sys.Boot();
  }
  sim::Executor exec;
  hw::Machine machine;
  std::vector<std::unique_ptr<CpuDriver>> drivers;
  skb::Skb skb;
  monitor::MonitorSystem sys;
};

struct RunResult {
  Cycles final_now = 0;
  std::uint64_t events_dispatched = 0;
  std::vector<Cycles> latencies;
};

Task<> RetypeOps(System& s, std::vector<caps::CapId> roots, int ncores,
                 std::vector<Cycles>& latencies) {
  for (caps::CapId root : roots) {
    auto r = co_await s.sys.on(0).GlobalRetype(root, caps::CapType::kFrame, 4096, 1,
                                               Protocol::kNumaMulticast, {},
                                               static_cast<std::uint16_t>(ncores));
    EXPECT_TRUE(r.committed);
    latencies.push_back(r.latency);
    co_await s.exec.Delay(20000);
  }
  s.sys.Shutdown();
}

RunResult RunTwoPhaseCommitWorkload() {
  System s;
  std::vector<caps::CapId> roots;
  for (int i = 0; i < 4; ++i) {
    roots.push_back(s.sys.InstallRootCap(static_cast<std::uint64_t>(i) << 24, 1 << 24));
  }
  RunResult out;
  s.exec.Spawn(RetypeOps(s, roots, /*ncores=*/8, out.latencies));
  s.exec.Run();
  out.final_now = s.exec.now();
  out.events_dispatched = s.exec.events_dispatched();
  return out;
}

TEST(Determinism, TwoPhaseCommitRunsBitIdentically) {
  RunResult a = RunTwoPhaseCommitWorkload();
  RunResult b = RunTwoPhaseCommitWorkload();
  EXPECT_GT(a.final_now, 0u);
  EXPECT_GT(a.events_dispatched, 0u);
  ASSERT_EQ(a.latencies.size(), 4u);
  EXPECT_EQ(a.final_now, b.final_now);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.latencies, b.latencies);
}

// Tracing is an observer, never a perturbation: the workload must be
// bit-identical with no tracer, a tracer capturing everything, and a tracer
// whose runtime mask rejects everything (the third run pins the mask-test
// fast path; compile-time removal via -DMK_TRACE_ENABLED=0 is exercised by
// the CI matrix build). A tiny ring forces wraparound so overwrites are
// covered too.
TEST(Determinism, TracingDoesNotPerturbTheSchedule) {
  RunResult baseline = RunTwoPhaseCommitWorkload();

  trace::Tracer full(/*capacity_per_core=*/256, trace::kAllCategories);
  full.Install();
  RunResult traced = RunTwoPhaseCommitWorkload();
  full.Uninstall();
  if (trace::kCompiledCategories != 0) {
    EXPECT_GT(full.total_records(), 0u);
  }

  trace::Tracer masked(/*capacity_per_core=*/256, /*mask=*/0);
  masked.Install();
  RunResult masked_run = RunTwoPhaseCommitWorkload();
  masked.Uninstall();
  EXPECT_EQ(masked.total_records(), 0u);

  EXPECT_EQ(baseline.final_now, traced.final_now);
  EXPECT_EQ(baseline.events_dispatched, traced.events_dispatched);
  EXPECT_EQ(baseline.latencies, traced.latencies);
  EXPECT_EQ(baseline.final_now, masked_run.final_now);
  EXPECT_EQ(baseline.events_dispatched, masked_run.events_dispatched);
  EXPECT_EQ(baseline.latencies, masked_run.latencies);
}

// Fault injection is schedule-driven and seeded, so a fixed plan must replay
// bit-identically too — that is what makes an injected failure debuggable at
// all (MGSim's argument for deterministic fault schedules). Two fixtures: a
// core killed mid-2PC, and random NIC loss under a TCP transfer.

struct FaultRunResult {
  Cycles final_now = 0;
  std::uint64_t events_dispatched = 0;
  std::vector<Cycles> latencies;
  int attempts_total = 0;
  bool all_committed = true;
  bool killed_core_failed = false;
};

Task<> FaultRetypeOps(System& s, std::vector<caps::CapId> roots, FaultRunResult& out) {
  for (caps::CapId root : roots) {
    auto r = co_await s.sys.on(0).GlobalRetype(root, caps::CapType::kFrame, 4096, 1,
                                               Protocol::kNumaMulticast, {},
                                               /*ncores=*/8);
    out.all_committed = out.all_committed && r.committed;
    out.attempts_total += r.attempts;
    out.latencies.push_back(r.latency);
    co_await s.exec.Delay(20000);
  }
  s.sys.Shutdown();
}

FaultRunResult RunKillOneCoreTwoPhaseWorkload() {
  // Core 5 participates in the 8-core collective and dies mid-2PC (the halt
  // cycle lands inside the second retype's prepare phase): the in-flight
  // phase times out, the initiator presumes abort, the detector excludes the
  // corpse, and the remaining retypes commit among survivors.
  fault::FaultPlan plan;
  plan.HaltCore(5, /*at=*/100'000);
  fault::Injector inj(plan);
  FaultRunResult out;
  {
    System s;
    std::vector<caps::CapId> roots;
    for (int i = 0; i < 4; ++i) {
      roots.push_back(s.sys.InstallRootCap(static_cast<std::uint64_t>(i) << 24, 1 << 24));
    }
    s.exec.Spawn(FaultRetypeOps(s, roots, out));
    s.exec.Run();
    out.final_now = s.exec.now();
    out.events_dispatched = s.exec.events_dispatched();
    out.killed_core_failed = s.sys.CoreFailed(5);
  }
  return out;
}

struct NetRunResult {
  Cycles final_now = 0;
  std::uint64_t events_dispatched = 0;
  std::size_t bytes_received = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t frames_lost = 0;
};

constexpr net::MacAddr kMacA{0x02, 0, 0, 0, 0, 0xaa};
constexpr net::MacAddr kMacB{0x02, 0, 0, 0, 0, 0xbb};
constexpr net::Ipv4Addr kIpA = net::MakeIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kIpB = net::MakeIp(10, 0, 0, 2);

NetRunResult RunLossyNetperfWorkload() {
  // The netperf shape (one-way TCP stream) over a link whose losses are the
  // plan's seeded RX-drop stream; go-back-N recovers every byte.
  fault::FaultPlan plan;
  plan.RandomRxLoss(/*rate=*/0.15, /*seed=*/7);
  fault::Injector inj(plan);
  NetRunResult out;
  {
    sim::Executor exec;
    hw::Machine machine(exec, hw::Amd2x2());
    net::NetStack a(machine, 0, kIpA, kMacA);
    net::NetStack b(machine, 2, kIpB, kMacB);
    a.AddArp(kIpB, kMacB);
    b.AddArp(kIpA, kMacA);
    auto lossy = [&exec](net::NetStack& dst, net::Packet p) -> Task<> {
      if (fault::Injector::active()->ShouldDropRxFrame(exec.now())) {
        co_return;
      }
      co_await dst.Input(std::move(p));
    };
    a.SetOutput([&](net::Packet p) -> Task<> { co_await lossy(b, std::move(p)); });
    b.SetOutput([&](net::Packet p) -> Task<> { co_await lossy(a, std::move(p)); });
    auto& listener = b.TcpListen(80);
    exec.Spawn([](net::NetStack::Listener& l, std::size_t& received) -> Task<> {
      net::NetStack::TcpConn* conn = co_await l.Accept();
      while (received < 6000) {
        auto chunk = co_await conn->Read();
        if (chunk.empty() && conn->peer_closed) {
          break;
        }
        received += chunk.size();
      }
    }(listener, out.bytes_received));
    exec.Spawn([](net::NetStack& stack) -> Task<> {
      net::NetStack::TcpConn* conn = co_await stack.TcpConnect(kIpB, 80);
      std::vector<std::uint8_t> payload(6000, 0x5a);
      co_await stack.TcpSend(*conn, payload.data(), payload.size());
    }(a));
    exec.Run();
    out.final_now = exec.now();
    out.events_dispatched = exec.events_dispatched();
    out.retransmits = a.tcp_retransmits() + b.tcp_retransmits();
    out.frames_lost = inj.injected(fault::FaultKind::kNicRxDrop);
  }
  return out;
}

TEST(Determinism, KillOneCoreFaultPlanReplaysBitIdentically) {
  FaultRunResult a = RunKillOneCoreTwoPhaseWorkload();
  FaultRunResult b = RunKillOneCoreTwoPhaseWorkload();
  EXPECT_EQ(a.final_now, b.final_now);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_EQ(a.attempts_total, b.attempts_total);
  // The fig8 recovery claim: every retype committed among the survivors via
  // presumed abort, the dead core was detected, and at least one round was
  // a timed-out attempt that had to be retried.
  EXPECT_TRUE(a.all_committed);
  EXPECT_TRUE(a.killed_core_failed);
  ASSERT_EQ(a.latencies.size(), 4u);
  EXPECT_GT(a.attempts_total, 4);
}

TEST(Determinism, NicLossFaultPlanReplaysBitIdentically) {
  NetRunResult a = RunLossyNetperfWorkload();
  NetRunResult b = RunLossyNetperfWorkload();
  EXPECT_EQ(a.final_now, b.final_now);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.frames_lost, b.frames_lost);
  // Loss really happened and recovery really delivered everything.
  EXPECT_EQ(a.bytes_received, 6000u);
  EXPECT_GT(a.frames_lost, 0u);
  EXPECT_GT(a.retransmits, 0u);
}

// --- Multi-queue NIC serving: the sec54_scaleout shape, replayed ---

// A miniature of the scale-out bench: one multi-queue NIC, two serving
// stacks (one per RX queue, IRQs routed to their cores), a client stack on
// the wire side, TCP echo request/response across ephemeral-port flows that
// RSS spreads over the queues. Everything that could perturb ordering is in
// play: per-queue rings, IRQ latency timers, driver mask/unmask loops, DMA
// pacing, and TX multiplexing onto one wire.
struct ScaleoutRunResult {
  Cycles final_now = 0;
  std::uint64_t events_dispatched = 0;
  std::uint64_t replies = 0;
  std::uint64_t frames_sent = 0;
  std::vector<std::uint64_t> per_queue;  // rx, tx interleaved per queue
  bool operator==(const ScaleoutRunResult&) const = default;
};

ScaleoutRunResult RunMultiQueueServingWorkload() {
  const net::MacAddr kSrvMac{0x02, 0, 0, 0, 0, 0x01};
  const net::MacAddr kCliMac{0x02, 0, 0, 0, 0, 0x77};
  constexpr net::Ipv4Addr kSrvIp = net::MakeIp(10, 0, 0, 1);
  constexpr net::Ipv4Addr kCliIp = net::MakeIp(10, 0, 0, 77);

  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd4x4());
  net::SimNic::Config cfg;
  cfg.queues = 2;
  cfg.irq_cores = {0, 4};
  cfg.irq_latency = machine.spec().cost.ipi_wire;
  cfg.rx_descs = 64;
  cfg.tx_descs = 64;
  cfg.gbps = 10.0;
  net::SimNic nic(machine, cfg);

  struct Harness {
    Harness(hw::Machine& m, net::SimNic& n, net::Ipv4Addr srv_ip,
            net::MacAddr srv_mac, net::Ipv4Addr cli_ip, net::MacAddr cli_mac)
        : nic(n),
          web0(m, 0, srv_ip, srv_mac),
          web1(m, 4, srv_ip, srv_mac),
          client(m, 12, cli_ip, cli_mac) {
      web0.AddArp(cli_ip, cli_mac);
      web1.AddArp(cli_ip, cli_mac);
      client.AddArp(srv_ip, srv_mac);
      web0.SetOutput([this](net::Packet p) -> Task<> {
        (void)co_await nic.DriverTxPush(0, std::move(p), 0);
      });
      web1.SetOutput([this](net::Packet p) -> Task<> {
        (void)co_await nic.DriverTxPush(4, std::move(p), 1);
      });
      client.SetOutput([this](net::Packet p) -> Task<> {
        co_await nic.InjectFromWire(std::move(p));
      });
    }
    net::SimNic& nic;
    net::NetStack web0;
    net::NetStack web1;
    net::NetStack client;
    bool stop = false;
  };
  Harness h(machine, nic, kSrvIp, kSrvMac, kCliIp, kCliMac);

  // Echo servers: read one chunk, send it back, close. They exit once the
  // client is done, so no task is left parked when the executor drains.
  auto serve = [](Harness& hh, net::NetStack& stack,
                  net::NetStack::Listener& l) -> Task<> {
    while (!hh.stop) {
      if (l.accepted.empty()) {
        co_await l.ready.Wait();
        continue;
      }
      net::NetStack::TcpConn* conn = co_await l.Accept();
      auto chunk = co_await conn->Read();
      if (!chunk.empty()) {
        co_await stack.TcpSend(*conn, chunk.data(), chunk.size());
      }
      co_await stack.TcpClose(*conn);
    }
  };
  net::NetStack::Listener& listen0 = h.web0.TcpListen(80);
  net::NetStack::Listener& listen1 = h.web1.TcpListen(80);
  exec.Spawn(serve(h, h.web0, listen0));
  exec.Spawn(serve(h, h.web1, listen1));

  // Per-queue drivers, the bench's mask/poll/unmask loop.
  auto driver = [](hw::Machine& m, Harness& hh, net::NetStack& stack, int core,
                   int queue) -> Task<> {
    while (!hh.stop) {
      if (hh.nic.RxReady(queue)) {
        hh.nic.SetInterruptsEnabled(queue, false);
        while (hh.nic.RxReady(queue)) {
          auto frame = co_await hh.nic.DriverRxPop(core, queue);
          if (frame.has_value()) {
            co_await m.Compute(core, 1400);
            co_await stack.Input(std::move(*frame));
          }
        }
        hh.nic.SetInterruptsEnabled(queue, true);
        continue;
      }
      (void)co_await hh.nic.rx_irq(queue).WaitTimeout(20'000);
    }
  };
  exec.Spawn(driver(machine, h, h.web0, 0, 0));
  exec.Spawn(driver(machine, h, h.web1, 4, 1));

  // Wire sink: NIC TX -> client stack. It re-checks the stop flag right
  // before parking: the client may set it while the sink is inside Input.
  exec.Spawn([](Harness& hh) -> Task<> {
    for (;;) {
      net::Packet p;
      while (hh.nic.WirePop(&p)) {
        co_await hh.client.Input(std::move(p));
      }
      if (hh.stop) {
        co_return;
      }
      co_await hh.nic.wire_out_ready().Wait();
    }
  }(h));

  // Client: sequential echo requests; ephemeral ports walk the RSS space.
  ScaleoutRunResult r;
  exec.Spawn([](Harness& hh, net::NetStack::Listener& l0, net::NetStack::Listener& l1,
                ScaleoutRunResult& out) -> Task<> {
    for (int i = 0; i < 12; ++i) {
      net::NetStack::TcpConn* conn = co_await hh.client.TcpConnect(kSrvIp, 80);
      std::vector<std::uint8_t> ping(64, static_cast<std::uint8_t>(i));
      co_await hh.client.TcpSend(*conn, ping.data(), ping.size());
      std::size_t got = 0;
      while (got < ping.size()) {
        auto chunk = co_await conn->Read();
        if (chunk.empty() && conn->peer_closed) {
          break;
        }
        got += chunk.size();
      }
      if (got == ping.size()) {
        ++out.replies;
      }
      co_await hh.client.TcpClose(*conn);
    }
    hh.stop = true;
    hh.nic.wire_out_ready().Signal();
    l0.ready.Signal();
    l1.ready.Signal();
  }(h, listen0, listen1, r));

  exec.Run();
  r.final_now = exec.now();
  r.events_dispatched = exec.events_dispatched();
  r.frames_sent = nic.frames_sent();
  for (int q = 0; q < nic.num_queues(); ++q) {
    r.per_queue.push_back(nic.queue_stats(q).rx_frames);
    r.per_queue.push_back(nic.queue_stats(q).tx_frames);
  }
  return r;
}

TEST(Determinism, MultiQueueServingReplaysBitIdentically) {
  ScaleoutRunResult a = RunMultiQueueServingWorkload();
  ScaleoutRunResult b = RunMultiQueueServingWorkload();
  EXPECT_EQ(a, b);
  // The workload did what it claims: every echo came back, and both queues
  // carried traffic (ephemeral ports spread across the RSS space).
  EXPECT_EQ(a.replies, 12u);
  ASSERT_EQ(a.per_queue.size(), 4u);
  EXPECT_GT(a.per_queue[0], 0u);  // queue 0 rx
  EXPECT_GT(a.per_queue[2], 0u);  // queue 1 rx
}

}  // namespace
}  // namespace mk
