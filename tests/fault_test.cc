// mk::fault: the injector's plan/query semantics, every injection point
// (IPIs, NIC frames, interconnect links, fail-stop core halts as
// hw::Machine::Halted reports them), and the recovery paths they exercise —
// presumed-abort 2PC among survivors, URPC and packet receive timeouts
// (bounded, and unbounded at sim::kForever), TCP go-back-N retransmission,
// and name-service eviction of dead cores' registrations. Invariant checks
// (no leaked blocked waiters, no in-flight op state, fully drained executors,
// replica agreement among survivors) run after every injected run.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <map>
#include <vector>

#include "fault/fault.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "idc/name_service.h"
#include "kernel/cpu_driver.h"
#include "monitor/monitor.h"
#include "net/nic.h"
#include "net/packet_channel.h"
#include "net/stack.h"
#include "net/wire.h"
#include "recover/config.h"
#include "sim/domain.h"
#include "sim/executor.h"
#include "skb/skb.h"
#include "urpc/channel.h"

namespace mk {
namespace {

using kernel::CpuDriver;
using monitor::Protocol;
using sim::Cycles;
using sim::Task;

// --- Plan and query semantics ---

TEST(FaultPlan, KindNamesAreDistinct) {
  for (std::size_t i = 0; i < fault::kNumKinds; ++i) {
    EXPECT_STRNE(fault::FaultKindName(static_cast<fault::FaultKind>(i)), "?");
  }
}

TEST(Injector, InactiveByDefaultAndSingleton) {
  EXPECT_EQ(fault::Injector::active(), nullptr);
  fault::FaultPlan plan;
  plan.HaltCore(3, 100);
  {
    fault::Injector inj(plan);
    EXPECT_EQ(fault::Injector::active(), &inj);
  }
  EXPECT_EQ(fault::Injector::active(), nullptr);
}

TEST(Injector, CoreHaltIsAPermanentPredicate) {
  fault::FaultPlan plan;
  plan.HaltCore(5, 1000);
  fault::Injector inj(plan);
  EXPECT_FALSE(inj.CoreHalted(5, 999));
  EXPECT_TRUE(inj.CoreHalted(5, 1000));
  EXPECT_TRUE(inj.CoreHalted(5, 1u << 30));  // permanent
  EXPECT_FALSE(inj.CoreHalted(4, 1u << 30));
  // Polling it never consumes anything.
  EXPECT_EQ(inj.injected(fault::FaultKind::kCoreHalt), 0u);
}

TEST(Injector, MachineHaltedAnswersOnlyForAnInstalledHalt) {
  fault::FaultPlan plan;
  plan.HaltCore(1, 1000);
  {
    // The plan exists but no Injector arms it: no core ever halts.
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd2x2());
    bool halted_late = true;
    exec.CallAt(2000, [&] { halted_late = m.Halted(1); });
    exec.Run();
    EXPECT_FALSE(halted_late);
  }
  fault::Injector inj(plan);
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd2x2());
  std::vector<bool> seen;
  for (Cycles t : {Cycles{999}, Cycles{1000}, Cycles{5000}}) {
    exec.CallAt(t, [&] { seen.push_back(m.Halted(1)); });
  }
  bool other_halted = true;
  exec.CallAt(5000, [&] { other_halted = m.Halted(0); });
  exec.Run();
  EXPECT_EQ(seen, (std::vector<bool>{false, true, true}));
  EXPECT_FALSE(other_halted);
}

TEST(Injector, CountedDropsExhaustAndEndpointsMatch) {
  fault::FaultPlan plan;
  plan.DropIpi(/*from=*/0, /*to=*/7, /*at=*/500, /*count=*/2);
  fault::Injector inj(plan);
  EXPECT_FALSE(inj.ShouldDropIpi(499, 0, 7));  // not yet armed
  EXPECT_FALSE(inj.ShouldDropIpi(600, 1, 7));  // wrong sender
  EXPECT_TRUE(inj.ShouldDropIpi(600, 0, 7));
  EXPECT_TRUE(inj.ShouldDropIpi(700, 0, 7));
  EXPECT_FALSE(inj.ShouldDropIpi(800, 0, 7));  // count exhausted
  EXPECT_EQ(inj.injected(fault::FaultKind::kIpiDrop), 2u);
}

TEST(Injector, ProbabilisticStreamsAreDeterministic) {
  auto decisions = [] {
    fault::FaultPlan plan;
    plan.RandomRxLoss(/*rate=*/0.3, /*seed=*/99);
    fault::Injector inj(plan);
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(inj.ShouldDropRxFrame(static_cast<Cycles>(i) * 100));
    }
    return out;
  };
  std::vector<bool> a = decisions();
  std::vector<bool> b = decisions();
  EXPECT_EQ(a, b);
  // The rate is roughly honored (seeded stream, so this is a fixed number).
  int dropped = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(dropped, 30);
  EXPECT_LT(dropped, 90);
}

TEST(Injector, FaultStreamsArePerDomainAndOrderIndependent) {
  // Under the parallel engine each domain consumes its own (spec, domain)
  // stream, keyed — not allocated in consumption order — so which domain
  // asks first (an accident of host scheduling in wall time, though not in
  // the simulated schedule) cannot change any domain's decisions.
  auto decisions_by_domain = [](std::vector<int> domain_order) {
    fault::FaultPlan plan;
    plan.RandomRxLoss(/*rate=*/0.3, /*seed=*/99);
    fault::Injector inj(plan);
    std::map<int, std::vector<bool>> out;
    for (int d : domain_order) {
      sim::internal::tls_current_domain = d;
      for (int i = 0; i < 100; ++i) {
        out[d].push_back(inj.ShouldDropRxFrame(static_cast<Cycles>(i) * 100));
      }
    }
    sim::internal::tls_current_domain = 0;
    return out;
  };
  auto a = decisions_by_domain({0, 1});
  auto b = decisions_by_domain({1, 0});
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);
  EXPECT_NE(a[0], a[1]);  // independent streams, not shifted copies
}

TEST(Injector, CountedFaultBudgetsArePerDomain) {
  // A count-limited spec models "this machine's NIC eats one frame"; each
  // domain is its own machine, so each gets its own budget — domain 1's
  // simulation must not observe domain 0 having already spent the fault.
  fault::FaultPlan plan;
  plan.DropIpi(/*from=*/0, /*to=*/1, /*at=*/0, /*count=*/1);
  fault::Injector inj(plan);
  sim::internal::tls_current_domain = 0;
  EXPECT_TRUE(inj.ShouldDropIpi(10, 0, 1));
  EXPECT_FALSE(inj.ShouldDropIpi(20, 0, 1));  // budget spent in domain 0
  sim::internal::tls_current_domain = 1;
  EXPECT_TRUE(inj.ShouldDropIpi(10, 0, 1));  // fresh budget in domain 1
  EXPECT_FALSE(inj.ShouldDropIpi(20, 0, 1));
  sim::internal::tls_current_domain = 0;
}

// --- Hardware injection points ---

TEST(IpiFaults, DroppedIpiNeverArrivesDelayedIpiArrivesLate) {
  auto arrival = [](fault::FaultPlan plan) -> std::optional<Cycles> {
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd2x2());
    fault::Injector inj(plan);
    std::optional<Cycles> arrived;
    m.ipi().SetHandler(2, [&](int, std::uint64_t) { arrived = exec.now(); });
    exec.Spawn([](hw::Machine& mm) -> Task<> { co_await mm.ipi().Send(0, 2, 1); }(m));
    exec.Run();
    return arrived;
  };
  std::optional<Cycles> clean = arrival(fault::FaultPlan{});
  ASSERT_TRUE(clean.has_value());

  fault::FaultPlan drop;
  drop.DropIpi(0, 2, 0);
  EXPECT_FALSE(arrival(drop).has_value());

  fault::FaultPlan delay;
  delay.DelayIpi(0, 2, /*extra=*/5000, /*at=*/0);
  std::optional<Cycles> late = arrival(delay);
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(*late, *clean + 5000);
}

TEST(IpiFaults, HaltedCoreReceivesNothing) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd2x2());
  fault::FaultPlan plan;
  plan.HaltCore(2, 0);
  fault::Injector inj(plan);
  bool arrived = false;
  m.ipi().SetHandler(2, [&](int, std::uint64_t) { arrived = true; });
  exec.Spawn([](hw::Machine& mm) -> Task<> { co_await mm.ipi().Send(0, 2, 1); }(m));
  exec.Run();
  EXPECT_FALSE(arrived);
}

TEST(LinkFaults, SpikeInflatesCrossPackageTransfers) {
  auto read_latency = [](fault::FaultPlan plan) {
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd8x4());
    fault::Injector inj(plan);
    sim::Addr line = m.mem().AllocLines(0, 1);
    Cycles out = 0;
    exec.Spawn([](hw::Machine& mm, sim::Addr a, Cycles& result) -> Task<> {
      // Put the line in package 0's cache, then fetch it from package 1.
      co_await mm.mem().Write(0, a);
      Cycles t0 = mm.exec().now();
      co_await mm.mem().Read(4, a);
      result = mm.exec().now() - t0;
    }(m, line, out));
    exec.Run();
    return out;
  };
  Cycles clean = read_latency(fault::FaultPlan{});
  fault::FaultPlan spike;
  spike.LinkSpike(/*extra=*/2000, /*at=*/0, sim::kForever);
  Cycles spiked = read_latency(spike);
  EXPECT_GE(spiked, clean + 2000);
}

// --- NIC injection points ---

using net::Ipv4Addr;
using net::MakeIp;
using net::Packet;

Packet UdpFrame(Ipv4Addr src, Ipv4Addr dst, std::uint16_t port, std::size_t bytes) {
  net::EthHeader eth;
  net::IpHeader ip;
  ip.src = src;
  ip.dst = dst;
  std::vector<std::uint8_t> data(bytes, 0x77);
  return net::BuildUdpFrame(eth, ip, net::UdpHeader{1, port, 0}, data.data(), data.size());
}

TEST(NicFaults, RxDropLosesFrameTxDropEatsFrameAfterDma) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Intel2x4());
  fault::FaultPlan plan;
  plan.DropRxFrames(/*at=*/0, /*count=*/1);
  plan.DropTxFrames(/*at=*/0, /*count=*/1);
  fault::Injector inj(plan);
  net::SimNic nic(m, net::SimNic::Config{});
  exec.Spawn([](net::SimNic& n) -> Task<> {
    co_await n.InjectFromWire(UdpFrame(MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), 7, 64));
    co_await n.InjectFromWire(UdpFrame(MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), 7, 64));
    (void)co_await n.DriverTxPush(0, UdpFrame(MakeIp(10, 0, 0, 2), MakeIp(10, 0, 0, 1), 7, 64));
  }(nic));
  exec.Run();
  // First RX frame dropped, second delivered; the TX frame was DMA'd but
  // never reached the wire.
  EXPECT_TRUE(nic.RxReady());
  EXPECT_EQ(nic.frames_dropped(), 2u);
  EXPECT_EQ(nic.frames_sent(), 0u);
  Packet out;
  EXPECT_FALSE(nic.WirePop(&out));
  EXPECT_EQ(inj.injected(fault::FaultKind::kNicRxDrop), 1u);
  EXPECT_EQ(inj.injected(fault::FaultKind::kNicTxDrop), 1u);
}

TEST(NicFaults, CorruptedFrameIsDeliveredButFailsChecksum) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Intel2x4());
  fault::FaultPlan plan;
  plan.CorruptRxFrames(/*at=*/0, /*count=*/1);
  fault::Injector inj(plan);
  net::SimNic nic(m, net::SimNic::Config{});
  net::NetStack stack(m, 0, MakeIp(10, 0, 0, 2), net::MacAddr{2, 0, 0, 0, 0, 1});
  stack.UdpBind(7);
  exec.Spawn([](net::SimNic& n, net::NetStack& st) -> Task<> {
    co_await n.InjectFromWire(UdpFrame(MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), 7, 64));
    auto frame = co_await n.DriverRxPop(0);
    if (!frame.has_value()) {
      ADD_FAILURE() << "corrupted frame was not delivered to the driver";
      co_return;
    }
    co_await st.Input(std::move(*frame));
  }(nic, stack));
  exec.Run();
  EXPECT_EQ(inj.injected(fault::FaultKind::kNicRxCorrupt), 1u);
  EXPECT_EQ(stack.drops_bad_frame(), 1u);
  EXPECT_EQ(stack.drops(), 1u);
}

// --- TCP retransmission ---

const net::MacAddr kMacA{0x02, 0, 0, 0, 0, 0xaa};
const net::MacAddr kMacB{0x02, 0, 0, 0, 0, 0xbb};
constexpr Ipv4Addr kIpA = MakeIp(10, 0, 0, 1);
constexpr Ipv4Addr kIpB = MakeIp(10, 0, 0, 2);

// Two stacks joined by a link whose losses are driven by the installed plan's
// RX-frame queries (the plan is the link model here; the NIC tests above pin
// the in-NIC injection points).
struct LossyStackPair {
  LossyStackPair()
      : machine(exec, hw::Amd2x2()),
        a(machine, 0, kIpA, kMacA),
        b(machine, 2, kIpB, kMacB) {
    a.AddArp(kIpB, kMacB);
    b.AddArp(kIpA, kMacA);
    a.SetOutput([this](Packet p) -> Task<> { co_await Deliver(b, std::move(p)); });
    b.SetOutput([this](Packet p) -> Task<> { co_await Deliver(a, std::move(p)); });
  }
  Task<> Deliver(net::NetStack& dst, Packet p) {
    if (fault::Injector* inj = fault::Injector::active();
        inj != nullptr && inj->ShouldDropRxFrame(exec.now())) {
      co_return;
    }
    co_await dst.Input(std::move(p));
  }
  sim::Executor exec;
  hw::Machine machine;
  net::NetStack a;
  net::NetStack b;
};

TEST(TcpRetransmit, GoBackNDeliversEverythingOverALossyLink) {
  fault::FaultPlan plan;
  plan.RandomRxLoss(/*rate=*/0.2, /*seed=*/42);
  fault::Injector inj(plan);
  LossyStackPair f;
  auto& listener = f.b.TcpListen(80);
  std::vector<std::uint8_t> received;
  f.exec.Spawn([](net::NetStack::Listener& l, std::vector<std::uint8_t>& out) -> Task<> {
    net::NetStack::TcpConn* conn = co_await l.Accept();
    while (out.size() < 8000) {
      auto chunk = co_await conn->Read();
      if (chunk.empty() && conn->peer_closed) {
        break;
      }
      out.insert(out.end(), chunk.begin(), chunk.end());
    }
  }(listener, received));
  f.exec.Spawn([](net::NetStack& stack) -> Task<> {
    net::NetStack::TcpConn* conn = co_await stack.TcpConnect(kIpB, 80);
    std::vector<std::uint8_t> big(8000);
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<std::uint8_t>(i);
    }
    co_await stack.TcpSend(*conn, big.data(), big.size());
  }(f.a));
  f.exec.Run();
  // Every byte arrived, in order, despite the losses — and losses did happen.
  ASSERT_EQ(received.size(), 8000u);
  for (std::size_t i = 0; i < received.size(); ++i) {
    ASSERT_EQ(received[i], static_cast<std::uint8_t>(i)) << "at offset " << i;
  }
  EXPECT_GT(inj.injected(fault::FaultKind::kNicRxDrop), 0u);
  EXPECT_GT(f.a.tcp_retransmits(), 0u);
  // Recovery quiesced: no timer left an event behind or a wheel slot armed.
  EXPECT_EQ(f.exec.pending_events(), 0u);
  EXPECT_EQ(f.exec.live_tasks(), 0u);
  EXPECT_EQ(f.a.wheel().armed(), 0u);
  EXPECT_EQ(f.b.wheel().armed(), 0u);
}

TEST(TcpRetransmit, LosslessRunsScheduleNoTimerAndRetransmitNothing) {
  // Same transfer with an injector installed but an empty plan: the
  // retransmit timer arms on the wheel, but nothing is lost, so nothing
  // retransmits.
  fault::FaultPlan plan;
  fault::Injector inj(plan);
  LossyStackPair f;
  auto& listener = f.b.TcpListen(80);
  std::size_t total = 0;
  f.exec.Spawn([](net::NetStack::Listener& l, std::size_t& out) -> Task<> {
    net::NetStack::TcpConn* conn = co_await l.Accept();
    while (out < 5000) {
      auto chunk = co_await conn->Read();
      if (chunk.empty()) {
        break;
      }
      out += chunk.size();
    }
  }(listener, total));
  f.exec.Spawn([](net::NetStack& stack) -> Task<> {
    net::NetStack::TcpConn* conn = co_await stack.TcpConnect(kIpB, 80);
    std::vector<std::uint8_t> big(5000, 0x42);
    co_await stack.TcpSend(*conn, big.data(), big.size());
  }(f.a));
  f.exec.Run();
  EXPECT_EQ(total, 5000u);
  EXPECT_EQ(f.a.tcp_retransmits(), 0u);
  EXPECT_EQ(f.b.tcp_retransmits(), 0u);
}

TEST(TcpRetransmit, LosslessLegacyTransferArmsTheWheelAndDisarmsOnTheLastAck) {
  fault::FaultPlan plan;
  fault::Injector inj(plan);
  LossyStackPair f;
  ASSERT_FALSE(f.a.lifecycle().enabled);
  auto& listener = f.b.TcpListen(80);
  std::size_t total = 0;
  f.exec.Spawn([](net::NetStack::Listener& l, std::size_t& out) -> Task<> {
    net::NetStack::TcpConn* conn = co_await l.Accept();
    while (out < 5000) {
      auto chunk = co_await conn->Read();
      if (chunk.empty()) {
        break;
      }
      out += chunk.size();
    }
  }(listener, total));
  bool checked = false;
  f.exec.Spawn([](LossyStackPair& p, bool& done) -> Task<> {
    net::NetStack::TcpConn* conn = co_await p.a.TcpConnect(kIpB, 80);
    std::vector<std::uint8_t> big(5000, 0x42);
    co_await p.a.TcpSend(*conn, big.data(), big.size());
    // The link delivers in line, so the last ACK is already in: every
    // retransmit timer was cancelled by a full ACK, not left to expire.
    EXPECT_EQ(conn->snd_una, conn->snd_nxt);
    EXPECT_GT(p.a.wheel().scheduled(), 0u);
    EXPECT_GT(p.b.wheel().scheduled(), 0u);  // the 2-way accept's SYN-ACK
    EXPECT_EQ(p.a.wheel().armed(), 0u);
    EXPECT_EQ(p.b.wheel().armed(), 0u);
    EXPECT_EQ(p.a.wheel().fired(), 0u);
    done = true;
  }(f, checked));
  f.exec.Run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(total, 5000u);
  EXPECT_EQ(f.a.tcp_retransmits(), 0u);
  EXPECT_EQ(f.b.tcp_retransmits(), 0u);
}

// --- Per-queue NIC fault scoping ---

TEST(NicFaults, QueueScopedDropsOnlyHitTheirQueue) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Intel2x4());
  net::SimNic::Config cfg;
  cfg.queues = 4;
  net::SimNic nic(m, cfg);
  // Find one flow per target queue (vary the UDP dst port).
  std::uint16_t port_q0 = 0;
  std::uint16_t port_q2 = 0;
  for (std::uint16_t p = 1000; p < 1200; ++p) {
    Packet f = UdpFrame(kIpA, kIpB, p, 64);
    int q = nic.RssQueueFor(f);
    if (q == 0 && port_q0 == 0) {
      port_q0 = p;
    }
    if (q == 2 && port_q2 == 0) {
      port_q2 = p;
    }
  }
  ASSERT_NE(port_q0, 0);
  ASSERT_NE(port_q2, 0);
  fault::FaultPlan plan;
  plan.DropRxFramesOnQueue(/*queue=*/2, /*at=*/0, /*count=*/1);
  fault::Injector inj(plan);
  // A wildcard-site query (the pre-multi-queue call sites pass -1) must not
  // match — or consume — a queue-scoped spec.
  EXPECT_FALSE(inj.ShouldDropRxFrame(/*now=*/100));
  exec.Spawn([](net::SimNic& n, std::uint16_t p0, std::uint16_t p2) -> Task<> {
    co_await n.InjectFromWire(UdpFrame(kIpA, kIpB, p0, 64));
    co_await n.InjectFromWire(UdpFrame(kIpA, kIpB, p2, 64));
    co_await n.InjectFromWire(UdpFrame(kIpA, kIpB, p2, 64));
  }(nic, port_q0, port_q2));
  exec.Run();
  EXPECT_EQ(nic.queue_stats(0).rx_frames, 1u);
  EXPECT_EQ(nic.queue_stats(0).rx_fault_drops, 0u);
  EXPECT_EQ(nic.queue_stats(2).rx_frames, 1u);  // second q2 frame survived
  EXPECT_EQ(nic.queue_stats(2).rx_fault_drops, 1u);
  EXPECT_EQ(inj.injected(fault::FaultKind::kNicRxDrop), 1u);
}

// --- TCP loss sweep: four rates, loss in each direction, replay identical ---

// Like LossyStackPair, but the two directions consult different injection
// points: a->b is "a's transmit side" (ShouldDropTxFrame), b->a is "a's
// receive side" (ShouldDropRxFrame). A plan can therefore lose data
// segments, ACKs, or both, at independent seeded rates.
struct DuplexLossyPair {
  DuplexLossyPair()
      : machine(exec, hw::Amd2x2()),
        a(machine, 0, kIpA, kMacA),
        b(machine, 2, kIpB, kMacB) {
    a.AddArp(kIpB, kMacB);
    b.AddArp(kIpA, kMacA);
    a.SetOutput([this](Packet p) -> Task<> {
      if (fault::Injector* inj = fault::Injector::active();
          inj != nullptr && inj->ShouldDropTxFrame(exec.now())) {
        co_return;
      }
      co_await b.Input(std::move(p));
    });
    b.SetOutput([this](Packet p) -> Task<> {
      if (fault::Injector* inj = fault::Injector::active();
          inj != nullptr && inj->ShouldDropRxFrame(exec.now())) {
        co_return;
      }
      co_await a.Input(std::move(p));
    });
  }
  sim::Executor exec;
  hw::Machine machine;
  net::NetStack a;
  net::NetStack b;
};

struct SweepResult {
  std::vector<std::uint8_t> upload;    // what the server received
  std::vector<std::uint8_t> download;  // what the client received
  std::uint64_t retx_client = 0;
  std::uint64_t retx_server = 0;
  std::uint64_t lost_rx = 0;
  std::uint64_t lost_tx = 0;
  std::uint64_t events = 0;
  Cycles final_now = 0;
  bool operator==(const SweepResult&) const = default;
};

// Echo: the client streams kBytes patterned bytes; the server echoes every
// chunk back; both sides must see the identical byte sequence.
SweepResult RunLossyEcho(double rate, std::uint64_t seed) {
  constexpr std::size_t kBytes = 6000;
  fault::FaultPlan plan;
  plan.RandomRxLoss(rate, seed);
  plan.RandomTxLoss(rate, seed ^ 0x5a5a5a5a);
  fault::Injector inj(plan);
  DuplexLossyPair f;
  SweepResult r;
  auto& listener = f.b.TcpListen(7);
  f.exec.Spawn([](net::NetStack& stack, net::NetStack::Listener& l,
                  std::vector<std::uint8_t>& up) -> Task<> {
    net::NetStack::TcpConn* conn = co_await l.Accept();
    while (up.size() < kBytes) {
      auto chunk = co_await conn->Read();
      if (chunk.empty() && conn->peer_closed) {
        break;
      }
      up.insert(up.end(), chunk.begin(), chunk.end());
      co_await stack.TcpSend(*conn, chunk.data(), chunk.size());
    }
  }(f.b, listener, r.upload));
  f.exec.Spawn([](net::NetStack& stack, std::vector<std::uint8_t>& down) -> Task<> {
    net::NetStack::TcpConn* conn = co_await stack.TcpConnect(kIpB, 7);
    std::vector<std::uint8_t> data(kBytes);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i * 7 + 3);
    }
    co_await stack.TcpSend(*conn, data.data(), data.size());
    while (down.size() < kBytes) {
      auto chunk = co_await conn->Read();
      if (chunk.empty() && conn->peer_closed) {
        break;
      }
      down.insert(down.end(), chunk.begin(), chunk.end());
    }
  }(f.a, r.download));
  f.exec.Run();
  r.retx_client = f.a.tcp_retransmits();
  r.retx_server = f.b.tcp_retransmits();
  r.lost_rx = inj.injected(fault::FaultKind::kNicRxDrop);
  r.lost_tx = inj.injected(fault::FaultKind::kNicTxDrop);
  r.events = f.exec.events_dispatched();
  r.final_now = f.exec.now();
  return r;
}

// Webserver-shaped: one HTTP GET, a ~4 KB response, server closes.
SweepResult RunLossyWebRequest(double rate, std::uint64_t seed) {
  const std::string kRequest = "GET /lossy.html HTTP/1.1\r\nHost: mk\r\n\r\n";
  const std::string kBody(4096, 'w');
  fault::FaultPlan plan;
  plan.RandomRxLoss(rate, seed);
  plan.RandomTxLoss(rate, seed + 1);
  fault::Injector inj(plan);
  DuplexLossyPair f;
  SweepResult r;
  auto& listener = f.b.TcpListen(80);
  f.exec.Spawn([](net::NetStack& stack, net::NetStack::Listener& l,
                  const std::string& body, std::vector<std::uint8_t>& up) -> Task<> {
    net::NetStack::TcpConn* conn = co_await l.Accept();
    std::string req;
    while (req.find("\r\n\r\n") == std::string::npos) {
      auto chunk = co_await conn->Read();
      if (chunk.empty() && conn->peer_closed) {
        break;
      }
      req.append(chunk.begin(), chunk.end());
    }
    up.assign(req.begin(), req.end());
    std::string resp = "HTTP/1.1 200 OK\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body;
    co_await stack.TcpSend(*conn,
                           reinterpret_cast<const std::uint8_t*>(resp.data()),
                           resp.size());
    co_await stack.TcpClose(*conn);
  }(f.b, listener, kBody, r.upload));
  f.exec.Spawn([](net::NetStack& stack, const std::string& req,
                  std::vector<std::uint8_t>& down) -> Task<> {
    net::NetStack::TcpConn* conn = co_await stack.TcpConnect(kIpB, 80);
    co_await stack.TcpSend(*conn,
                           reinterpret_cast<const std::uint8_t*>(req.data()),
                           req.size());
    for (;;) {
      auto chunk = co_await conn->Read();
      if (chunk.empty() && conn->peer_closed) {
        break;
      }
      down.insert(down.end(), chunk.begin(), chunk.end());
    }
  }(f.a, kRequest, r.download));
  f.exec.Run();
  r.retx_client = f.a.tcp_retransmits();
  r.retx_server = f.b.tcp_retransmits();
  r.lost_rx = inj.injected(fault::FaultKind::kNicRxDrop);
  r.lost_tx = inj.injected(fault::FaultKind::kNicTxDrop);
  r.events = f.exec.events_dispatched();
  r.final_now = f.exec.now();
  return r;
}

TEST(TcpLossSweep, EchoDeliversEverythingAtEveryRateAndReplaysBitIdentically) {
  constexpr std::size_t kBytes = 6000;
  std::vector<std::uint8_t> expected(kBytes);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  Cycles prev_now = 0;
  std::uint64_t total_lost = 0;
  std::uint64_t total_retx = 0;
  for (double rate : {0.01, 0.05, 0.15, 0.30}) {
    SweepResult r = RunLossyEcho(rate, /*seed=*/1234);
    ASSERT_EQ(r.upload, expected) << "rate " << rate;
    ASSERT_EQ(r.download, expected) << "rate " << rate;
    total_lost += r.lost_rx + r.lost_tx;
    total_retx += r.retx_client + r.retx_server;
    // At serious loss rates, data segments certainly went missing and
    // go-back-N certainly fired. (At 1% a short transfer can get lucky, and
    // a lost bare ACK is legitimately repaired by a later cumulative ACK
    // with no retransmit — so those rates only feed the sweep totals.)
    if (rate >= 0.15) {
      EXPECT_GT(r.lost_rx + r.lost_tx, 0u) << "rate " << rate;
      EXPECT_GT(r.retx_client + r.retx_server, 0u) << "rate " << rate;
    }
    // Higher loss cannot finish sooner: the 200k-cycle RTO dominates.
    EXPECT_GE(r.final_now, prev_now) << "rate " << rate;
    prev_now = r.final_now;
    // Same seed -> the entire run, counters and clock included, replays.
    EXPECT_EQ(r, RunLossyEcho(rate, /*seed=*/1234)) << "rate " << rate;
  }
  EXPECT_GT(total_lost, 0u);
  EXPECT_GT(total_retx, 0u);
}

TEST(TcpLossSweep, WebRequestSurvivesEveryRateAndReplaysBitIdentically) {
  const std::string kRequest = "GET /lossy.html HTTP/1.1\r\nHost: mk\r\n\r\n";
  const std::string kBody(4096, 'w');
  const std::string kResp = "HTTP/1.1 200 OK\r\nContent-Length: " +
                            std::to_string(kBody.size()) + "\r\n\r\n" + kBody;
  std::uint64_t total_lost = 0;
  std::uint64_t total_retx = 0;
  for (double rate : {0.01, 0.05, 0.15, 0.30}) {
    SweepResult r = RunLossyWebRequest(rate, /*seed=*/777);
    ASSERT_EQ(std::string(r.upload.begin(), r.upload.end()), kRequest)
        << "rate " << rate;
    ASSERT_EQ(std::string(r.download.begin(), r.download.end()), kResp)
        << "rate " << rate;
    total_lost += r.lost_rx + r.lost_tx;
    total_retx += r.retx_client + r.retx_server;
    EXPECT_EQ(r, RunLossyWebRequest(rate, /*seed=*/777)) << "rate " << rate;
  }
  EXPECT_GT(total_lost, 0u);
  EXPECT_GT(total_retx, 0u);
}

// --- Monitor recovery: presumed abort and survivor agreement ---

struct MonitorFixture {
  MonitorFixture()
      : machine(exec, hw::Amd8x4()),
        drivers(CpuDriver::BootAll(machine)),
        skb(machine),
        sys(machine, skb, drivers) {
    skb.PopulateFromHardware();
    sys.Boot();
  }

  void ExpectQuiesced() {
    EXPECT_EQ(exec.pending_events(), 0u);
    for (int c = 0; c < machine.num_cores(); ++c) {
      EXPECT_EQ(drivers[static_cast<std::size_t>(c)]->blocked_count(), 0u)
          << "leaked blocked waiter on core " << c;
      if (sys.IsOnline(c)) {
        EXPECT_EQ(sys.on(c).inflight_ops(), 0u) << "leaked op state on core " << c;
      }
    }
  }

  sim::Executor exec;
  hw::Machine machine;
  std::vector<std::unique_ptr<CpuDriver>> drivers;
  skb::Skb skb;
  monitor::MonitorSystem sys;
};

TEST(TwoPcRecovery, CommitsAmongSurvivorsAfterParticipantHalt) {
  fault::FaultPlan plan;
  plan.HaltCore(9, /*at=*/0);  // dead before the protocol starts, undetected
  fault::Injector inj(plan);
  MonitorFixture f;
  caps::CapId root = f.sys.InstallRootCap(0, 64 << 20);
  monitor::Monitor::TwoPcResult result;
  f.exec.Spawn([](MonitorFixture& fx, caps::CapId r,
                  monitor::Monitor::TwoPcResult& out) -> Task<> {
    out = co_await fx.sys.on(0).GlobalRetype(r, caps::CapType::kFrame, 4096, 4,
                                             Protocol::kNumaMulticast);
    fx.sys.Shutdown();
  }(f, root, result));
  f.exec.Run();
  // The first round times out on the dead participant (presumed abort), the
  // detection excludes it, and the retry commits among the survivors.
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(result.outcome, monitor::Monitor::TwoPcOutcome::kCommitted);
  EXPECT_GE(result.attempts, 2);
  EXPECT_TRUE(f.sys.CoreFailed(9));
  EXPECT_FALSE(f.sys.IsOnline(9));
  EXPECT_TRUE(f.sys.LiveReplicasConsistent());
  // The dead replica never prepared, so full consistency may not hold — but
  // every live replica applied the retype.
  for (int c : {0, 1, 8, 10, 31}) {
    EXPECT_TRUE(f.sys.on(c).caps().HasDescendants(root)) << "replica " << c;
  }
  f.ExpectQuiesced();
}

TEST(TwoPcRecovery, HaltedMulticastLeaderIsReplaced) {
  fault::FaultPlan plan;
  plan.HaltCore(8, /*at=*/0);  // core 8 leads package 2 in the 8x4 route
  fault::Injector inj(plan);
  MonitorFixture f;
  caps::CapId root = f.sys.InstallRootCap(0, 64 << 20);
  monitor::Monitor::TwoPcResult result;
  f.exec.Spawn([](MonitorFixture& fx, caps::CapId r,
                  monitor::Monitor::TwoPcResult& out) -> Task<> {
    out = co_await fx.sys.on(0).GlobalRetype(r, caps::CapType::kFrame, 4096, 1,
                                             Protocol::kNumaMulticast);
    fx.sys.Shutdown();
  }(f, root, result));
  f.exec.Run();
  EXPECT_TRUE(result.committed);
  EXPECT_TRUE(f.sys.CoreFailed(8));
  // The leader's package members survived and applied the op via the
  // promoted leader.
  for (int c : {9, 10, 11}) {
    EXPECT_TRUE(f.sys.on(c).caps().HasDescendants(root)) << "replica " << c;
  }
  EXPECT_TRUE(f.sys.LiveReplicasConsistent());
  f.ExpectQuiesced();
}

TEST(TwoPcRecovery, HeartbeatDetectsHaltWithoutAnInitiator) {
  fault::FaultPlan plan;
  plan.HaltCore(13, /*at=*/10'000);
  fault::Injector inj(plan);
  MonitorFixture f;
  f.exec.Spawn([](MonitorFixture& fx) -> Task<> {
    // Nobody initiates anything; only the heartbeat sweep is running.
    co_await fx.exec.Delay(monitor::kHeartbeatPeriod * 3);
    EXPECT_TRUE(fx.sys.CoreFailed(13));
    EXPECT_FALSE(fx.sys.IsOnline(13));
    fx.sys.Shutdown();
  }(f));
  f.exec.Run();
  f.ExpectQuiesced();
}

TEST(TwoPcRecovery, CleanRunsUnderInjectorStillCommitFirstTry) {
  // An installed-but-empty plan must not change protocol outcomes.
  fault::FaultPlan plan;
  fault::Injector inj(plan);
  MonitorFixture f;
  caps::CapId root = f.sys.InstallRootCap(0, 64 << 20);
  monitor::Monitor::TwoPcResult result;
  f.exec.Spawn([](MonitorFixture& fx, caps::CapId r,
                  monitor::Monitor::TwoPcResult& out) -> Task<> {
    out = co_await fx.sys.on(0).GlobalRetype(r, caps::CapType::kFrame, 4096, 1,
                                             Protocol::kNumaMulticast);
    fx.sys.Shutdown();
  }(f, root, result));
  f.exec.Run();
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.backoff, 0u);
  EXPECT_TRUE(f.sys.ReplicasConsistent());
  f.ExpectQuiesced();
}

// --- URPC receive timeout ---

TEST(RecvTimeout, DeadSenderYieldsNulloptAndNoLeakedWaiter) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  auto drivers = CpuDriver::BootAll(m);
  fault::FaultPlan plan;
  plan.HaltCore(0, /*at=*/0);  // the would-be sender is dead
  fault::Injector inj(plan);
  urpc::Channel ch(m, 0, 4);
  bool got = true;
  exec.Spawn([](urpc::Channel& c, CpuDriver& local, CpuDriver& snd, bool& out) -> Task<> {
    auto msg = co_await c.RecvTimeout(local, snd, /*poll_window=*/3000,
                                      /*timeout=*/100'000);
    out = msg.has_value();
  }(ch, *drivers[4], *drivers[0], got));
  exec.Run();
  EXPECT_FALSE(got);
  EXPECT_EQ(drivers[4]->blocked_count(), 0u);
  EXPECT_EQ(exec.pending_events(), 0u);
  EXPECT_EQ(exec.live_tasks(), 0u);
}

TEST(RecvTimeout, MessageBeatingTheTimeoutIsDelivered) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  auto drivers = CpuDriver::BootAll(m);
  fault::FaultPlan plan;
  fault::Injector inj(plan);
  urpc::Channel ch(m, 0, 4);
  int got = -1;
  exec.Spawn([](hw::Machine& mm, urpc::Channel& c) -> Task<> {
    co_await mm.exec().Delay(20'000);  // past the poll window, before the timeout
    co_await c.Send(urpc::Pack(0, 42));
  }(m, ch));
  exec.Spawn([](urpc::Channel& c, CpuDriver& local, CpuDriver& snd, int& out) -> Task<> {
    auto msg = co_await c.RecvTimeout(local, snd, /*poll_window=*/3000,
                                      /*timeout=*/200'000);
    if (!msg.has_value()) {
      ADD_FAILURE() << "message beat the timeout but was not delivered";
      co_return;
    }
    out = urpc::Unpack<int>(*msg);
  }(ch, *drivers[4], *drivers[0], got));
  exec.Run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(drivers[4]->blocked_count(), 0u);
}

// An unbounded wait (sim::kForever) delivers exactly what the plain receive
// delivers, at the same cycle, in the same number of events, and leaves no
// timer pending while it waits. Each run sends one message at cycle 50k,
// long after the receiver's poll window closed.
struct UnboundedReceive {
  int value = -1;
  Cycles at = 0;
  std::uint64_t events = 0;
  std::size_t pending_while_waiting = 99;
};

// `timeout` empty: RecvBlocking; otherwise RecvTimeout with that bound.
UnboundedReceive UrpcReceiveAt50k(std::optional<Cycles> timeout) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  auto drivers = CpuDriver::BootAll(m);
  urpc::Channel ch(m, 0, 4);
  UnboundedReceive out;
  exec.Spawn([](hw::Machine& mm, urpc::Channel& c, CpuDriver& local, CpuDriver& snd,
                std::optional<Cycles> bound, UnboundedReceive& r) -> Task<> {
    urpc::Message msg;
    if (!bound.has_value()) {
      msg = co_await c.RecvBlocking(local, snd, /*poll_window=*/3000);
    } else {
      std::optional<urpc::Message> got =
          co_await c.RecvTimeout(local, snd, /*poll_window=*/3000, *bound);
      if (!got.has_value()) {
        ADD_FAILURE() << "the message beat every bound but was not delivered";
        co_return;
      }
      msg = *got;
    }
    r.value = urpc::Unpack<int>(msg);
    r.at = mm.exec().now();
  }(m, ch, *drivers[4], *drivers[0], timeout, out));
  exec.CallAt(50'000, [&] {
    out.pending_while_waiting = exec.pending_events();
    exec.Spawn([](urpc::Channel& c) -> Task<> { co_await c.Send(urpc::Pack(0, 42)); }(ch));
  });
  exec.Run();
  out.events = exec.events_dispatched();
  EXPECT_EQ(drivers[4]->blocked_count(), 0u);
  EXPECT_EQ(exec.live_tasks(), 0u);
  return out;
}

TEST(RecvTimeout, UnboundedUrpcWaitIsRecvBlockingAndArmsNoTimer) {
  const UnboundedReceive blocking = UrpcReceiveAt50k(std::nullopt);
  const UnboundedReceive forever = UrpcReceiveAt50k(sim::kForever);
  const UnboundedReceive bounded = UrpcReceiveAt50k(1'000'000);
  EXPECT_EQ(blocking.value, 42);
  EXPECT_EQ(blocking.pending_while_waiting, 0u);
  EXPECT_EQ(forever.value, blocking.value);
  EXPECT_EQ(forever.at, blocking.at);
  EXPECT_EQ(forever.events, blocking.events);
  EXPECT_EQ(forever.pending_while_waiting, 0u);
  // A finite bound delivers the same message at the same cycle, but its
  // timer was pending the whole time.
  EXPECT_EQ(bounded.value, blocking.value);
  EXPECT_EQ(bounded.at, blocking.at);
  EXPECT_EQ(bounded.pending_while_waiting, 1u);
}

UnboundedReceive PacketReceiveAt50k(bool forever) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  net::PacketChannel ch(m, 0, 4);
  UnboundedReceive out;
  exec.Spawn([](hw::Machine& mm, net::PacketChannel& c, bool via_timeout,
                UnboundedReceive& r) -> Task<> {
    net::Packet pkt;
    if (via_timeout) {
      std::optional<net::Packet> got = co_await c.RecvTimeout(sim::kForever);
      if (!got.has_value()) {
        ADD_FAILURE() << "an unbounded wait returned empty";
        co_return;
      }
      pkt = std::move(*got);
    } else {
      pkt = co_await c.Recv();
    }
    r.value = pkt.size() == 1 ? pkt[0] : -1;
    r.at = mm.exec().now();
  }(m, ch, forever, out));
  exec.CallAt(50'000, [&] {
    out.pending_while_waiting = exec.pending_events();
    exec.Spawn([](net::PacketChannel& c, net::Packet p) -> Task<> {
      co_await c.Send(std::move(p));
    }(ch, net::Packet(1, 42)));
  });
  exec.Run();
  out.events = exec.events_dispatched();
  EXPECT_EQ(exec.live_tasks(), 0u);
  return out;
}

TEST(RecvTimeout, UnboundedPacketWaitIsRecvAndArmsNoTimer) {
  const UnboundedReceive plain = PacketReceiveAt50k(false);
  const UnboundedReceive forever = PacketReceiveAt50k(true);
  EXPECT_EQ(plain.value, 42);
  EXPECT_EQ(plain.pending_while_waiting, 0u);
  EXPECT_EQ(forever.value, plain.value);
  EXPECT_EQ(forever.at, plain.at);
  EXPECT_EQ(forever.events, plain.events);
  EXPECT_EQ(forever.pending_while_waiting, 0u);
}

// --- Name service eviction ---

TEST(NameServiceFaults, DeadCoreRegistrationsAreEvictedLazily) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  fault::FaultPlan plan;
  plan.HaltCore(2, /*at=*/50'000);
  fault::Injector inj(plan);
  idc::NameService ns(m);
  // Built outside the coroutine: gcc miscompiles braced string-literal
  // initializer lists across the coroutine transform ("array used as
  // initializer").
  std::map<std::string, std::string> props{{"kind", "service"}};
  exec.Spawn([](hw::Machine& mm, idc::NameService& svc,
                const std::map<std::string, std::string>& p) -> Task<> {
    (void)co_await svc.Register(2, "fs", p);
    (void)co_await svc.Register(5, "net", p);
    // Before the halt both resolve.
    EXPECT_TRUE((co_await svc.Lookup(1, "fs")).has_value());
    EXPECT_EQ((co_await svc.Query(1, "kind", "service")).size(), 2u);
    co_await mm.exec().Delay(60'000);  // past the halt
    // The dead core's registration is evicted on touch; the live one stays.
    EXPECT_FALSE((co_await svc.Lookup(1, "fs")).has_value());
    auto remaining = co_await svc.Query(1, "kind", "service");
    EXPECT_EQ(remaining.size(), 1u);
    if (!remaining.empty()) {
      EXPECT_EQ(remaining[0].core, 5);
    }
    EXPECT_EQ(svc.size(), 1u);
  }(m, ns, props));
  exec.Run();
}

TEST(NameServiceFaults, ExplicitEvictionCountsRemovalsAndIsIdempotent) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  idc::NameService ns(m);
  std::map<std::string, std::string> props{{"kind", "service"}};
  exec.Spawn([](idc::NameService& svc,
                const std::map<std::string, std::string>& p) -> Task<> {
    (void)co_await svc.Register(2, "fs", p);
    (void)co_await svc.Register(2, "blk", p);
    (void)co_await svc.Register(2, "pci", p);
    (void)co_await svc.Register(5, "net", p);
    // Everything core 2 owned goes in one sweep; core 5's survives.
    EXPECT_EQ(svc.EvictCore(2), 3u);
    EXPECT_EQ(svc.size(), 1u);
    EXPECT_TRUE((co_await svc.Lookup(1, "net")).has_value());
    EXPECT_FALSE((co_await svc.Lookup(1, "fs")).has_value());
    // Evicting again — or evicting a core that never registered — is a no-op.
    EXPECT_EQ(svc.EvictCore(2), 0u);
    EXPECT_EQ(svc.EvictCore(7), 0u);
    EXPECT_EQ(svc.size(), 1u);
  }(ns, props));
  exec.Run();
}

TEST(NameServiceFaults, ReRegistrationAfterEvictionGetsAFreshIdentity) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  idc::NameService ns(m);
  std::map<std::string, std::string> props{{"kind", "service"}};
  exec.Spawn([](idc::NameService& svc,
                const std::map<std::string, std::string>& p) -> Task<> {
    idc::ServiceRef old_ref = co_await svc.Register(2, "fs", p);
    EXPECT_EQ(svc.EvictCore(2), 1u);
    // The evicted id is dead, not recyclable: unregistering it fails.
    EXPECT_FALSE(co_await svc.Unregister(5, old_ref.id));
    // A successor (the respawned service on another core) takes the name over
    // with a fresh id; lookups resolve to it, never to the dead owner.
    idc::ServiceRef new_ref = co_await svc.Register(5, "fs", p);
    EXPECT_NE(new_ref.id, old_ref.id);
    EXPECT_EQ(new_ref.core, 5);
    auto found = co_await svc.Lookup(1, "fs");
    EXPECT_TRUE(found.has_value());
    if (found.has_value()) {
      EXPECT_EQ(found->core, 5);
      EXPECT_EQ(found->id, new_ref.id);
    }
  }(ns, props));
  exec.Run();
}

TEST(NameServiceFaults, QueryWhereEveryMatchIsDeadEvictsAllAndReturnsEmpty) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  fault::FaultPlan plan;
  plan.HaltCore(2, /*at=*/50'000);
  plan.HaltCore(5, /*at=*/50'000);
  fault::Injector inj(plan);
  idc::NameService ns(m);
  std::map<std::string, std::string> props{{"kind", "service"}};
  exec.Spawn([](hw::Machine& mm, idc::NameService& svc,
                const std::map<std::string, std::string>& p) -> Task<> {
    (void)co_await svc.Register(2, "fs", p);
    (void)co_await svc.Register(5, "net", p);
    co_await mm.exec().Delay(60'000);  // past both halts
    // A query whose entire result set is owned by dead cores evicts the lot
    // mid-iteration and returns empty, without touching freed entries.
    EXPECT_TRUE((co_await svc.Query(1, "kind", "service")).empty());
    EXPECT_EQ(svc.size(), 0u);
  }(m, ns, props));
  exec.Run();
}

}  // namespace
}  // namespace mk
