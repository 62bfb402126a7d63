// Tests for the network substrate: wire formats/checksums, the simulated
// NIC, packet channels, the stack (UDP + TCP), and the kernel loopback
// baseline.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/shared_netstack.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/nic.h"
#include "net/packet_channel.h"
#include "net/stack.h"
#include "net/wire.h"
#include "sim/executor.h"
#include "sim/random.h"

namespace mk::net {
namespace {

using sim::Cycles;
using sim::Task;

const MacAddr kMacA{0x02, 0, 0, 0, 0, 0xaa};
const MacAddr kMacB{0x02, 0, 0, 0, 0, 0xbb};
constexpr Ipv4Addr kIpA = MakeIp(10, 0, 0, 1);
constexpr Ipv4Addr kIpB = MakeIp(10, 0, 0, 2);

TEST(Wire, InternetChecksumKnownVector) {
  // RFC 1071 example: the checksum of this data is 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InternetChecksum(data, sizeof(data)), 0x220d);
}

TEST(Wire, UdpFrameRoundTrip) {
  EthHeader eth{kMacB, kMacA, kEtherTypeIpv4};
  IpHeader ip;
  ip.src = kIpA;
  ip.dst = kIpB;
  UdpHeader udp;
  udp.src_port = 1234;
  udp.dst_port = 7;
  std::string payload = "hello multikernel";
  Packet frame = BuildUdpFrame(eth, ip, udp,
                               reinterpret_cast<const std::uint8_t*>(payload.data()),
                               payload.size());
  auto parsed = ParseFrame(frame);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->udp.has_value());
  EXPECT_EQ(parsed->ip.src, kIpA);
  EXPECT_EQ(parsed->ip.dst, kIpB);
  EXPECT_EQ(parsed->udp->src_port, 1234);
  EXPECT_EQ(parsed->udp->dst_port, 7);
  std::string got(frame.begin() + static_cast<std::ptrdiff_t>(parsed->payload_offset),
                  frame.begin() + static_cast<std::ptrdiff_t>(parsed->payload_offset +
                                                              parsed->payload_len));
  EXPECT_EQ(got, payload);
}

TEST(Wire, CorruptionIsDetected) {
  EthHeader eth{kMacB, kMacA, kEtherTypeIpv4};
  IpHeader ip;
  ip.src = kIpA;
  ip.dst = kIpB;
  std::uint8_t payload[64] = {1, 2, 3};
  Packet frame = BuildUdpFrame(eth, ip, UdpHeader{9, 9, 0}, payload, sizeof(payload));
  // Flip a payload byte: the UDP checksum must catch it.
  Packet bad = frame;
  bad[bad.size() - 1] ^= 0xff;
  EXPECT_FALSE(ParseFrame(bad).has_value());
  // Flip an IP header byte: the IP checksum must catch it.
  Packet bad_ip = frame;
  bad_ip[kEthHeaderBytes + 8] ^= 0x01;  // TTL
  EXPECT_FALSE(ParseFrame(bad_ip).has_value());
  // Truncation must be rejected, not crash.
  Packet trunc(frame.begin(), frame.begin() + 20);
  EXPECT_FALSE(ParseFrame(trunc).has_value());
}

TEST(Wire, TcpFrameRoundTrip) {
  EthHeader eth{kMacB, kMacA, kEtherTypeIpv4};
  IpHeader ip;
  ip.src = kIpA;
  ip.dst = kIpB;
  TcpHeader tcp;
  tcp.src_port = 80;
  tcp.dst_port = 49152;
  tcp.seq = 1000;
  tcp.ack = 2000;
  tcp.flags.syn = true;
  tcp.flags.ack = true;
  Packet frame = BuildTcpFrame(eth, ip, tcp, nullptr, 0);
  auto parsed = ParseFrame(frame);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->tcp.has_value());
  EXPECT_EQ(parsed->tcp->seq, 1000u);
  EXPECT_EQ(parsed->tcp->ack, 2000u);
  EXPECT_TRUE(parsed->tcp->flags.syn);
  EXPECT_TRUE(parsed->tcp->flags.ack);
  EXPECT_FALSE(parsed->tcp->flags.fin);
  EXPECT_EQ(parsed->payload_len, 0u);
}

struct NicFixture {
  NicFixture() : machine(exec, hw::Intel2x4()) {}
  sim::Executor exec;
  hw::Machine machine;
};

Packet TestFrame(std::size_t payload) {
  EthHeader eth{kMacB, kMacA, kEtherTypeIpv4};
  IpHeader ip;
  ip.src = kIpA;
  ip.dst = kIpB;
  std::vector<std::uint8_t> data(payload, 0x5a);
  return BuildUdpFrame(eth, ip, UdpHeader{1, 2, 0}, data.data(), data.size());
}

TEST(Nic, RxPathDeliversFrames) {
  NicFixture f;
  SimNic nic(f.machine, SimNic::Config{});
  f.exec.Spawn([](SimNic& n) -> Task<> { co_await n.InjectFromWire(TestFrame(100)); }(nic));
  f.exec.Run();
  EXPECT_TRUE(nic.RxReady());
  bool got = false;
  f.exec.Spawn([](SimNic& n, bool& out) -> Task<> {
    auto frame = co_await n.DriverRxPop(2);
    out = frame.has_value() && frame->size() > 100;
  }(nic, got));
  f.exec.Run();
  EXPECT_TRUE(got);
  EXPECT_FALSE(nic.RxReady());
}

TEST(Nic, LineRatePacesInjection) {
  NicFixture f;
  SimNic nic(f.machine, SimNic::Config{});
  const int kFrames = 10;
  f.exec.Spawn([](SimNic& n, int count) -> Task<> {
    for (int i = 0; i < count; ++i) {
      co_await n.InjectFromWire(TestFrame(1000));
    }
  }(nic, kFrames));
  Cycles end = f.exec.Run();
  // 10 x ~1066-byte frames at 1 Gb/s on a 2.66 GHz clock: >= 21 cycles/byte
  // would be wrong; expect ~ (bytes+24) * 21.28 cycles each.
  Cycles per_frame = end / kFrames;
  Cycles expected = static_cast<Cycles>((1000 + 42 + 24) * 8 * 2.66);
  EXPECT_NEAR(static_cast<double>(per_frame), static_cast<double>(expected),
              static_cast<double>(expected) * 0.2);
}

TEST(Nic, RxOverflowDropsFrames) {
  NicFixture f;
  SimNic::Config cfg;
  cfg.rx_descs = 4;
  SimNic nic(f.machine, cfg);
  f.exec.Spawn([](SimNic& n) -> Task<> {
    for (int i = 0; i < 8; ++i) {
      co_await n.InjectFromWire(TestFrame(64));
    }
  }(nic));
  f.exec.Run();
  EXPECT_EQ(nic.frames_dropped(), 4u);
}

TEST(Nic, TxPathReachesWire) {
  NicFixture f;
  SimNic nic(f.machine, SimNic::Config{});
  f.exec.Spawn([](SimNic& n) -> Task<> {
    bool ok = co_await n.DriverTxPush(2, TestFrame(200));
    EXPECT_TRUE(ok);
  }(nic));
  f.exec.Run();
  Packet out;
  EXPECT_TRUE(nic.WirePop(&out));
  EXPECT_EQ(nic.frames_sent(), 1u);
  EXPECT_TRUE(ParseFrame(out).has_value());
}

TEST(PacketChannel, TransfersPacketsAcrossCores) {
  NicFixture f;
  PacketChannel ch(f.machine, 0, 4);
  std::size_t got_len = 0;
  f.exec.Spawn([](PacketChannel& c) -> Task<> { co_await c.Send(TestFrame(500)); }(ch));
  f.exec.Spawn([](PacketChannel& c, std::size_t& out) -> Task<> {
    Packet p = co_await c.Recv();
    out = p.size();
  }(ch, got_len));
  f.exec.Run();
  EXPECT_EQ(got_len, TestFrame(500).size());
}

struct StackPair {
  StackPair()
      : machine(exec, hw::Amd2x2()),
        a(machine, 0, kIpA, kMacA),
        b(machine, 2, kIpB, kMacB) {
    a.AddArp(kIpB, kMacB);
    b.AddArp(kIpA, kMacA);
    // Wire the stacks back-to-back (zero-cost link: stack costs dominate).
    a.SetOutput([this](Packet p) -> Task<> { co_await b.Input(std::move(p)); });
    b.SetOutput([this](Packet p) -> Task<> { co_await a.Input(std::move(p)); });
  }
  sim::Executor exec;
  hw::Machine machine;
  NetStack a;
  NetStack b;
};

TEST(Stack, UdpEndToEnd) {
  StackPair f;
  auto& sock = f.b.UdpBind(7);
  std::string got;
  f.exec.Spawn([](NetStack& a) -> Task<> {
    std::vector<std::uint8_t> payload = {'p', 'i', 'n', 'g'};
    co_await a.UdpSendTo(555, kIpB, 7, std::move(payload));
  }(f.a));
  f.exec.Spawn([](NetStack::UdpSocket& s, std::string& out) -> Task<> {
    auto d = co_await s.Recv();
    out.assign(d.payload.begin(), d.payload.end());
    EXPECT_EQ(d.src_port, 555);
    EXPECT_EQ(d.src_ip, kIpA);
  }(sock, got));
  f.exec.Run();
  EXPECT_EQ(got, "ping");
}

TEST(Stack, UdpToUnboundPortIsDropped) {
  StackPair f;
  f.exec.Spawn([](NetStack& a) -> Task<> {
    std::vector<std::uint8_t> payload = {1};
    co_await a.UdpSendTo(5, kIpB, 99, std::move(payload));
  }(f.a));
  f.exec.Run();
  EXPECT_EQ(f.b.drops(), 1u);
}

Packet ValidUdpFrame(Ipv4Addr dst_ip, std::uint16_t dst_port, std::size_t bytes) {
  EthHeader eth{kMacB, kMacA, kEtherTypeIpv4};
  IpHeader ip;
  ip.src = kIpA;
  ip.dst = dst_ip;
  UdpHeader udp;
  udp.src_port = 555;
  udp.dst_port = dst_port;
  std::vector<std::uint8_t> payload(bytes, 0x5a);
  return BuildUdpFrame(eth, ip, udp, payload.data(), payload.size());
}

TEST(Stack, DropCountersAttributeEachCause) {
  // The single drops_ counter used to conflate four different fates; each
  // cause now has its own counter (fault-injection stats need attribution).
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd2x2());
  NetStack s(m, 0, kIpB, kMacB);
  s.UdpBind(7);
  Packet corrupt = ValidUdpFrame(kIpB, 7, 64);
  corrupt.back() ^= 0xff;  // payload bit flip: UDP checksum mismatch
  Packet truncated(10, 0);
  Packet foreign_ethertype = ValidUdpFrame(kIpB, 7, 64);
  foreign_ethertype[12] = 0x08;  // ethertype ARP: well-formed, not IPv4
  foreign_ethertype[13] = 0x06;
  exec.Spawn([](NetStack& st, Packet c, Packet t, Packet e) -> Task<> {
    co_await st.Input(ValidUdpFrame(kIpB, 7, 64));                  // delivered
    co_await st.Input(std::move(c));                                // bad checksum
    co_await st.Input(std::move(t));                                // truncated
    co_await st.Input(ValidUdpFrame(MakeIp(10, 9, 9, 9), 7, 64));   // not our IP
    co_await st.Input(ValidUdpFrame(kIpB, 99, 64));                 // unbound port
    co_await st.Input(std::move(e));                                // unknown proto
  }(s, std::move(corrupt), std::move(truncated), std::move(foreign_ethertype)));
  exec.Run();
  EXPECT_EQ(s.frames_in(), 6u);
  EXPECT_EQ(s.drops_bad_frame(), 2u);  // checksum + truncated
  EXPECT_EQ(s.drops_not_for_us(), 1u);
  EXPECT_EQ(s.drops_no_listener(), 1u);
  EXPECT_EQ(s.drops_unknown_proto(), 1u);
  EXPECT_EQ(s.drops(), 5u);  // the sum, for callers that don't care why
}

TEST(Stack, ChecksumCostIsChargedOnPayloadBytesSummedUniformly) {
  // The parse-failure path used to charge the checksum cost on frame.size()
  // while the success path charged payload_len. The basis is now uniform:
  // the L4 payload bytes the parser actually summed.
  auto cost_of = [](Packet frame) {
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd2x2());
    NetStack s(m, 0, kIpB, kMacB);
    s.UdpBind(7);
    exec.Spawn(
        [](NetStack& st, Packet f) -> Task<> { co_await st.Input(std::move(f)); }(
            s, std::move(frame)));
    return exec.Run();
  };
  Cycles delivered = cost_of(ValidUdpFrame(kIpB, 7, 256));
  Packet corrupt = ValidUdpFrame(kIpB, 7, 256);
  corrupt.back() ^= 0xff;
  // A corrupt payload was summed in full before the mismatch was detected:
  // same basis, same charge as the delivered frame.
  EXPECT_EQ(cost_of(std::move(corrupt)), delivered);
  // A frame rejected before any L4 checksum ran (truncated / non-IPv4) sums
  // nothing and pays only the fixed per-packet cost.
  Cycles truncated = cost_of(Packet(10, 0));
  EXPECT_LT(truncated, delivered);
  Packet arp = ValidUdpFrame(kIpB, 7, 256);
  arp[12] = 0x08;
  arp[13] = 0x06;
  EXPECT_EQ(cost_of(std::move(arp)), truncated);
}

TEST(Stack, TcpConnectTransferClose) {
  StackPair f;
  auto& listener = f.b.TcpListen(80);
  std::string received_by_server;
  std::string received_by_client;
  // Server: accept, read request, reply, close.
  f.exec.Spawn([](NetStack& stack, NetStack::Listener& l, std::string& got) -> Task<> {
    NetStack::TcpConn* conn = co_await l.Accept();
    auto data = co_await conn->Read();
    got.assign(data.begin(), data.end());
    co_await stack.TcpSend(*conn, std::string("response-data"));
    co_await stack.TcpClose(*conn);
  }(f.b, listener, received_by_server));
  // Client: connect, send, read to close.
  f.exec.Spawn([](NetStack& stack, std::string& got) -> Task<> {
    NetStack::TcpConn* conn = co_await stack.TcpConnect(kIpB, 80);
    EXPECT_TRUE(conn->established);
    co_await stack.TcpSend(*conn, std::string("request-data"));
    while (!conn->peer_closed) {
      auto chunk = co_await conn->Read();
      got.append(chunk.begin(), chunk.end());
      if (chunk.empty()) {
        break;
      }
    }
  }(f.a, received_by_client));
  f.exec.Run();
  EXPECT_EQ(received_by_server, "request-data");
  EXPECT_EQ(received_by_client, "response-data");
}

TEST(Stack, TcpSegmentsLargePayloadsByMss) {
  StackPair f;
  auto& listener = f.b.TcpListen(80);
  std::size_t total = 0;
  f.exec.Spawn([](NetStack::Listener& l, std::size_t& out) -> Task<> {
    NetStack::TcpConn* conn = co_await l.Accept();
    while (out < 5000) {
      auto chunk = co_await conn->Read();
      if (chunk.empty()) {
        break;
      }
      out += chunk.size();
    }
  }(listener, total));
  f.exec.Spawn([](NetStack& stack) -> Task<> {
    NetStack::TcpConn* conn = co_await stack.TcpConnect(kIpB, 80);
    std::vector<std::uint8_t> big(5000, 0x42);
    co_await stack.TcpSend(*conn, big.data(), big.size());
  }(f.a));
  f.exec.Run();
  EXPECT_EQ(total, 5000u);
  // 5000 bytes over a 1460-byte MSS: at least 4 data segments + handshake.
  EXPECT_GE(f.a.frames_out(), 5u);
}

// --- Multi-queue NIC: RSS steering, per-queue rings/IRQs/counters ---

Packet FlowFrame(std::uint16_t src_port, std::size_t bytes = 64) {
  EthHeader eth{kMacB, kMacA, kEtherTypeIpv4};
  IpHeader ip;
  ip.src = kIpA;
  ip.dst = kIpB;
  std::vector<std::uint8_t> payload(bytes, 0x77);
  return BuildUdpFrame(eth, ip, UdpHeader{src_port, 7, 0}, payload.data(),
                       payload.size());
}

TEST(Rss, ExtractFlowTupleMatchesParseFrame) {
  Packet frame = FlowFrame(5000, 128);
  auto parsed = ParseFrame(frame);
  auto tuple = ExtractFlowTuple(frame);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(tuple.has_value());
  EXPECT_EQ(tuple->src_ip, parsed->ip.src);
  EXPECT_EQ(tuple->dst_ip, parsed->ip.dst);
  EXPECT_EQ(tuple->proto, kIpProtoUdp);
  EXPECT_EQ(tuple->src_port, parsed->udp->src_port);
  EXPECT_EQ(tuple->dst_port, parsed->udp->dst_port);
  // Runt and non-IP frames yield no tuple (and steer to queue 0), not a crash.
  EXPECT_FALSE(ExtractFlowTuple(Packet(5, 0)).has_value());
  Packet arp = FlowFrame(5000);
  arp[12] = 0x08;
  arp[13] = 0x06;
  EXPECT_FALSE(ExtractFlowTuple(arp).has_value());
}

TEST(Rss, SteeringIsSeededAndDeterministic) {
  // Same seed -> identical queue assignment (across runs and NIC instances);
  // a different seed permutes at least some flows.
  NicFixture f;
  SimNic::Config cfg;
  cfg.queues = 4;
  SimNic nic_a(f.machine, cfg);
  SimNic nic_b(f.machine, cfg);
  SimNic::Config other = cfg;
  other.rss_seed = cfg.rss_seed + 1;
  SimNic nic_c(f.machine, other);
  int moved = 0;
  for (std::uint16_t p = 4000; p < 4100; ++p) {
    Packet frame = FlowFrame(p);
    int qa = nic_a.RssQueueFor(frame);
    EXPECT_EQ(qa, nic_b.RssQueueFor(frame));
    EXPECT_GE(qa, 0);
    EXPECT_LT(qa, 4);
    if (nic_c.RssQueueFor(frame) != qa) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(Rss, UniformFlowsSpreadAcrossQueues) {
  NicFixture f;
  SimNic::Config cfg;
  cfg.queues = 4;
  SimNic nic(f.machine, cfg);
  const int kFlows = 2000;
  std::array<int, 4> counts{};
  for (int i = 0; i < kFlows; ++i) {
    counts[static_cast<std::size_t>(
        nic.RssQueueFor(FlowFrame(static_cast<std::uint16_t>(10000 + i))))]++;
  }
  // Expected 500 per queue; a keyed hash should stay within +-30%.
  for (int c : counts) {
    EXPECT_GT(c, 350) << "queue starved";
    EXPECT_LT(c, 650) << "queue overloaded";
  }
}

TEST(Rss, CorruptPayloadStaysOnItsFlowQueue) {
  // Steering reads only the headers, pre-checksum: a frame whose payload was
  // mangled on the wire must land on the queue its flow owns, so the drop is
  // attributed to the right shard.
  NicFixture f;
  SimNic::Config cfg;
  cfg.queues = 4;
  SimNic nic(f.machine, cfg);
  Packet frame = FlowFrame(6000, 256);
  Packet corrupt = frame;
  corrupt.back() ^= 0xff;
  EXPECT_EQ(nic.RssQueueFor(frame), nic.RssQueueFor(corrupt));
}

TEST(Nic, MultiQueueSteersFramesToPredictedRings) {
  NicFixture f;
  SimNic::Config cfg;
  cfg.queues = 4;
  SimNic nic(f.machine, cfg);
  std::array<std::uint64_t, 4> expected{};
  f.exec.Spawn([](SimNic& n, std::array<std::uint64_t, 4>& exp) -> Task<> {
    for (std::uint16_t p = 7000; p < 7032; ++p) {
      Packet frame = FlowFrame(p);
      exp[static_cast<std::size_t>(n.RssQueueFor(frame))]++;
      co_await n.InjectFromWire(std::move(frame));
    }
  }(nic, expected));
  f.exec.Run();
  std::uint64_t total = 0;
  for (int q = 0; q < 4; ++q) {
    EXPECT_EQ(nic.queue_stats(q).rx_frames, expected[static_cast<std::size_t>(q)]);
    EXPECT_EQ(nic.RxReady(q), expected[static_cast<std::size_t>(q)] > 0);
    total += nic.queue_stats(q).rx_frames;
  }
  EXPECT_EQ(total, 32u);
  // Drain one non-empty queue; the others are untouched.
  for (int q = 0; q < 4; ++q) {
    if (!nic.RxReady(q)) {
      continue;
    }
    std::uint64_t want = expected[static_cast<std::size_t>(q)];
    std::uint64_t got = 0;
    f.exec.Spawn([](SimNic& n, int queue, std::uint64_t& out) -> Task<> {
      while (n.RxReady(queue)) {
        auto frame = co_await n.DriverRxPop(2, queue);
        if (frame) {
          ++out;
        }
      }
    }(nic, q, got));
    f.exec.Run();
    EXPECT_EQ(got, want);
    break;
  }
}

TEST(Nic, OverflowDropsAreAttributedToTheFullQueue) {
  NicFixture f;
  SimNic::Config cfg;
  cfg.queues = 4;
  cfg.rx_descs = 4;
  SimNic nic(f.machine, cfg);
  // One flow: every frame lands on the same queue, which overflows alone.
  Packet frame = FlowFrame(9001);
  const int hot = nic.RssQueueFor(frame);
  f.exec.Spawn([](SimNic& n, std::uint16_t port) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      co_await n.InjectFromWire(FlowFrame(port));
    }
  }(nic, 9001));
  f.exec.Run();
  EXPECT_EQ(nic.queue_stats(hot).rx_frames, 4u);
  EXPECT_EQ(nic.queue_stats(hot).rx_overflow_drops, 6u);
  EXPECT_EQ(nic.frames_dropped(), 6u);
  for (int q = 0; q < 4; ++q) {
    if (q != hot) {
      EXPECT_EQ(nic.queue_stats(q).rx_drops(), 0u) << "drop misattributed to q" << q;
    }
  }
}

TEST(Nic, PerQueueIrqRoutingAndMasking) {
  NicFixture f;
  SimNic::Config cfg;
  cfg.queues = 2;
  cfg.irq_core = 1;
  cfg.irq_cores = {2, 5};
  SimNic nic(f.machine, cfg);
  EXPECT_EQ(nic.irq_core(0), 2);
  EXPECT_EQ(nic.irq_core(1), 5);
  // Find a port for each queue.
  std::array<std::uint16_t, 2> port{};
  for (std::uint16_t p = 3000; p < 3100; ++p) {
    port[static_cast<std::size_t>(nic.RssQueueFor(FlowFrame(p)))] = p;
  }
  ASSERT_NE(port[0], 0);
  ASSERT_NE(port[1], 0);
  // Mask queue 1; its frame raises no IRQ while queue 0's does.
  nic.SetInterruptsEnabled(1, false);
  bool irq0 = false;
  bool irq1 = false;
  f.exec.Spawn([](SimNic& n, bool& out) -> Task<> {
    out = co_await n.rx_irq(0).WaitTimeout(1'000'000);
  }(nic, irq0));
  f.exec.Spawn([](SimNic& n, bool& out) -> Task<> {
    out = co_await n.rx_irq(1).WaitTimeout(1'000'000);
  }(nic, irq1));
  f.exec.Spawn([](SimNic& n, std::uint16_t p0, std::uint16_t p1) -> Task<> {
    co_await n.InjectFromWire(FlowFrame(p0));
    co_await n.InjectFromWire(FlowFrame(p1));
  }(nic, port[0], port[1]));
  f.exec.Run();
  EXPECT_TRUE(irq0);
  EXPECT_FALSE(irq1);
  EXPECT_TRUE(nic.RxReady(1));  // the frame is in the ring, silently
}

TEST(Nic, IrqLatencyDelaysDelivery) {
  NicFixture f;
  SimNic::Config cfg;
  cfg.irq_latency = 500;
  SimNic nic(f.machine, cfg);
  Cycles injected_at = 0;
  Cycles raised_at = 0;
  f.exec.Spawn([](sim::Executor& exec, SimNic& n, Cycles& inj, Cycles& got)
                   -> Task<> {
    auto waiter = [](sim::Executor& e, SimNic& nic2, Cycles& out) -> Task<> {
      co_await nic2.rx_irq(0).Wait();
      out = e.now();
    };
    exec.Spawn(waiter(exec, n, got));
    co_await n.InjectFromWire(FlowFrame(1234));
    inj = exec.now();
  }(f.exec, nic, injected_at, raised_at));
  f.exec.Run();
  EXPECT_GT(injected_at, 0u);
  EXPECT_EQ(raised_at, injected_at + 500);
}

TEST(Nic, MultiQueueReplayIsBitIdentical) {
  // Same-seed multi-queue runs must be bit-identical, per-queue stats
  // included (the scale-out bench's determinism rests on this).
  auto run = [] {
    NicFixture f;
    SimNic::Config cfg;
    cfg.queues = 4;
    cfg.irq_latency = 300;
    SimNic nic(f.machine, cfg);
    f.exec.Spawn([](SimNic& n) -> Task<> {
      for (std::uint16_t p = 100; p < 164; ++p) {
        co_await n.InjectFromWire(FlowFrame(p, 32 + p % 800));
      }
    }(nic));
    f.exec.Spawn([](SimNic& n) -> Task<> {
      for (int i = 0; i < 16; ++i) {
        co_await n.DriverTxPush(2, FlowFrame(9000), i % 4);
      }
    }(nic));
    f.exec.Run();
    std::vector<std::uint64_t> sig{f.exec.events_dispatched(), f.exec.now(),
                                   nic.frames_sent(), nic.frames_dropped()};
    for (int q = 0; q < 4; ++q) {
      sig.push_back(nic.queue_stats(q).rx_frames);
      sig.push_back(nic.queue_stats(q).tx_frames);
    }
    return sig;
  };
  EXPECT_EQ(run(), run());
}

// --- The RX service loop (SimNic::ServeRx) ---

constexpr int kRxCore = 2;

// Handler for the RX loop tests: records when each frame was handled.
Task<> RecordFrame(sim::Executor& exec, std::vector<Cycles>* handled) {
  handled->push_back(exec.now());
  co_return;
}

// Runs the loop on queue 0 and records when it returned.
Task<> ServeAndRecordReturn(sim::Executor& exec, SimNic& nic, Cycles frame_cost,
                            std::vector<Cycles>* handled, const bool* stop,
                            Cycles* returned_at) {
  co_await nic.ServeRx(kRxCore, 0, frame_cost,
                       [&exec, handled](Packet) { return RecordFrame(exec, handled); },
                       stop);
  *returned_at = exec.now();
}

Task<> InjectBurstAt(sim::Executor& exec, SimNic& nic, Cycles at, int frames) {
  co_await exec.Delay(at - exec.now());
  for (int i = 0; i < frames; ++i) {
    co_await nic.InjectFromWire(TestFrame(64));
  }
}

TEST(NicRxLoop, DrainsABurstWhilePollingWithOneTrapPerIrqWake) {
  NicFixture f;
  SimNic nic(f.machine, SimNic::Config{});
  // Burst A sits in the ring before the loop starts: drained by polling, no
  // interrupt, no trap.
  f.exec.Spawn(InjectBurstAt(f.exec, nic, 0, 4));
  f.exec.Run();
  ASSERT_TRUE(nic.RxReady());
  std::vector<Cycles> handled;
  Cycles returned_at = 0;
  f.exec.Spawn(ServeAndRecordReturn(f.exec, nic, 50'000, &handled, nullptr,
                                    &returned_at));
  // Burst B lands on the parked loop: its first frame's interrupt wakes the
  // loop (one trap), and the rest arrive while that frame's 50k-cycle cost is
  // charged, so polling drains them with the interrupt still masked.
  f.exec.Spawn(InjectBurstAt(f.exec, nic, 1'000'000, 4));
  f.exec.Run();
  EXPECT_EQ(handled.size(), 8u);
  EXPECT_FALSE(nic.RxReady());
  EXPECT_EQ(f.machine.counters().core(kRxCore).traps, 1u);
  EXPECT_EQ(returned_at, 0u) << "the loop runs for the whole simulation";
}

TEST(NicRxLoop, ParksWithoutAStopFlagAndTheExecutorDrains) {
  NicFixture f;
  SimNic nic(f.machine, SimNic::Config{});
  std::vector<Cycles> handled;
  Cycles returned_at = 0;
  f.exec.Spawn(ServeAndRecordReturn(f.exec, nic, 100, &handled, nullptr,
                                    &returned_at));
  f.exec.Spawn(InjectBurstAt(f.exec, nic, 300'000, 1));
  f.exec.Run();
  ASSERT_EQ(handled.size(), 1u);
  // A parked loop schedules nothing: the run ends the moment the frame is
  // handled, not at some later poll.
  EXPECT_EQ(f.exec.now(), handled.back());
  EXPECT_EQ(f.machine.counters().core(kRxCore).traps, 1u);
  EXPECT_EQ(returned_at, 0u);
}

TEST(NicRxLoop, StopFlagEndsThePollWithinOnePeriod) {
  NicFixture f;
  SimNic nic(f.machine, SimNic::Config{});
  std::vector<Cycles> handled;
  Cycles returned_at = 0;
  bool stop = false;
  Cycles stopped_at = 0;
  f.exec.Spawn(ServeAndRecordReturn(f.exec, nic, 100, &handled, &stop,
                                    &returned_at));
  f.exec.Spawn(InjectBurstAt(f.exec, nic, 30'000, 1));
  f.exec.Spawn([](sim::Executor& exec, bool& flag, Cycles& at) -> Task<> {
    co_await exec.Delay(111'111);
    flag = true;
    at = exec.now();
  }(f.exec, stop, stopped_at));
  f.exec.Run();
  EXPECT_EQ(handled.size(), 1u);
  EXPECT_GE(returned_at, stopped_at);
  EXPECT_LE(returned_at, stopped_at + SimNic::kRxPollPeriod);
  // Idle poll timeouts charge no trap; only the frame's interrupt wake does.
  EXPECT_EQ(f.machine.counters().core(kRxCore).traps, 1u);
}

TEST(NicRxLoop, ReturnsOnceItsCoreHalts) {
  NicFixture f;
  SimNic nic(f.machine, SimNic::Config{});
  fault::FaultPlan plan;
  plan.HaltCore(kRxCore, 500'000);
  fault::Injector inj(plan);
  inj.Install();
  std::vector<Cycles> handled;
  Cycles returned_at = 0;
  f.exec.Spawn(ServeAndRecordReturn(f.exec, nic, 100, &handled, nullptr,
                                    &returned_at));
  f.exec.Spawn(InjectBurstAt(f.exec, nic, 100'000, 1));
  // After the halt, the next frame's interrupt wakes the loop, which finds
  // its core dead and returns, leaving the frame in the ring.
  f.exec.Spawn(InjectBurstAt(f.exec, nic, 1'000'000, 1));
  f.exec.Run();
  inj.Uninstall();
  EXPECT_EQ(handled.size(), 1u);
  EXPECT_GE(returned_at, 1'000'000u);
  EXPECT_TRUE(nic.RxReady());
  EXPECT_EQ(inj.activations(0), 1u);
}

// --- Malformed-frame fuzz: the parse path must reject, count, and not crash ---

TEST(StackFuzz, MalformedFramesNeverCrashAndEveryFrameIsAccountedFor) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd2x2());
  NetStack s(m, 0, kIpB, kMacB);
  auto& sock = s.UdpBind(7);
  sim::Rng rng(0xfeedface);
  const int kFrames = 400;
  std::uint64_t delivered = 0;
  exec.Spawn([](NetStack& st, NetStack::UdpSocket& so, sim::Rng& r, int n,
                std::uint64_t& ok) -> Task<> {
    for (int i = 0; i < n; ++i) {
      Packet frame = ValidUdpFrame(kIpB, 7, 32 + r.Below(512));
      switch (r.Below(6)) {
        case 0:  // pristine
          break;
        case 1:  // runt: truncate to a random prefix (possibly < eth header)
          frame.resize(r.Below(frame.size() + 1));
          break;
        case 2:  // giant: oversized tail the IP total_length does not cover
          frame.resize(frame.size() + 2000 + r.Below(2000), 0xee);
          break;
        case 3:  // single bit flip anywhere (header or payload)
          frame[r.Below(frame.size())] ^= static_cast<std::uint8_t>(
              1u << r.Below(8));
          break;
        case 4:  // mangled length fields
          frame[kEthHeaderBytes + 2] ^= 0xff;
          break;
        default:  // garbage of arbitrary size
          frame.assign(r.Below(80), static_cast<std::uint8_t>(r.Below(256)));
          break;
      }
      co_await st.Input(std::move(frame));
      NetStack::UdpDatagram d;
      while (so.TryRecv(&d)) {
        ++ok;
      }
    }
  }(s, sock, rng, kFrames, delivered));
  exec.Run();
  EXPECT_EQ(s.frames_in(), static_cast<std::uint64_t>(kFrames));
  // Every input frame was either delivered or attributed to a drop cause.
  EXPECT_EQ(delivered + s.drops(), static_cast<std::uint64_t>(kFrames));
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(s.drops_bad_frame(), 0u);
}

TEST(NicFuzz, MalformedFramesThroughTheNicAreSteeredSafely) {
  // The same mutation classes pushed through a 4-queue NIC: steering must be
  // bounds-safe on runts/giants and the ring invariants must hold.
  NicFixture f;
  SimNic::Config cfg;
  cfg.queues = 4;
  cfg.rx_descs = 64;
  SimNic nic(f.machine, cfg);
  sim::Rng rng(0xabad1dea);
  const int kFrames = 300;
  f.exec.Spawn([](SimNic& n, sim::Rng& r, int total) -> Task<> {
    for (int i = 0; i < total; ++i) {
      Packet frame = FlowFrame(static_cast<std::uint16_t>(r.Below(65536)),
                               16 + r.Below(256));
      switch (r.Below(4)) {
        case 0:
          break;
        case 1:
          frame.resize(r.Below(frame.size() + 1));
          break;
        case 2:
          frame.resize(frame.size() + r.Below(1500), 0x11);
          break;
        default:
          if (!frame.empty()) {
            frame[r.Below(frame.size())] ^= 0x40;
          }
          break;
      }
      int q = n.RssQueueFor(frame);
      EXPECT_GE(q, 0);
      EXPECT_LT(q, 4);
      co_await n.InjectFromWire(std::move(frame));
    }
  }(nic, rng, kFrames));
  f.exec.Run();
  std::uint64_t ringed = 0;
  for (int q = 0; q < 4; ++q) {
    ringed += nic.queue_stats(q).rx_frames;
    EXPECT_LE(nic.queue_stats(q).rx_frames, 64u);
  }
  EXPECT_EQ(ringed + nic.frames_dropped(), static_cast<std::uint64_t>(kFrames));
}

TEST(SharedKernelLoopback, DeliversPacketsInOrder) {
  NicFixture f;
  baseline::SharedKernelLoopback loop(f.machine);
  std::vector<std::size_t> sizes;
  f.exec.Spawn([](baseline::SharedKernelLoopback& l) -> Task<> {
    for (int i = 1; i <= 3; ++i) {
      co_await l.Send(0, Packet(static_cast<std::size_t>(i * 100), 0xab));
    }
  }(loop));
  f.exec.Spawn([](baseline::SharedKernelLoopback& l, std::vector<std::size_t>& out)
                   -> Task<> {
    for (int i = 0; i < 3; ++i) {
      Packet p = co_await l.Recv(2);
      out.push_back(p.size());
    }
  }(loop, sizes));
  f.exec.Run();
  EXPECT_EQ(sizes, (std::vector<std::size_t>{100, 200, 300}));
}

TEST(SharedKernelLoopback, CausesMoreCacheMissesThanPacketChannel) {
  // The Table 4 effect: the shared-queue kernel design ping-pongs lock, meta
  // and buffer lines; URPC only moves the channel and payload lines.
  const int kPackets = 50;
  auto misses = [&](bool kernel) {
    NicFixture f;
    std::uint64_t before = 0;
    if (kernel) {
      baseline::SharedKernelLoopback loop(f.machine);
      f.exec.Spawn([](baseline::SharedKernelLoopback& l, int n) -> Task<> {
        for (int i = 0; i < n; ++i) {
          co_await l.Send(0, Packet(1000, 1));
        }
      }(loop, kPackets));
      f.exec.Spawn([](baseline::SharedKernelLoopback& l, int n) -> Task<> {
        for (int i = 0; i < n; ++i) {
          (void)co_await l.Recv(4);
        }
      }(loop, kPackets));
      f.exec.Run();
    } else {
      PacketChannel ch(f.machine, 0, 4);
      f.exec.Spawn([](PacketChannel& c, int n) -> Task<> {
        for (int i = 0; i < n; ++i) {
          co_await c.Send(Packet(1000, 1));
        }
      }(ch, kPackets));
      f.exec.Spawn([](PacketChannel& c, int n) -> Task<> {
        for (int i = 0; i < n; ++i) {
          (void)co_await c.Recv();
        }
      }(ch, kPackets));
      f.exec.Run();
    }
    (void)before;
    auto total = f.machine.counters().Total();
    return total.cache_misses;
  };
  EXPECT_GT(misses(true), misses(false));
}

}  // namespace
}  // namespace mk::net
