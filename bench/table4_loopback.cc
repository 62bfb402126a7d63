// Table 4: IP loopback performance on the 2x2-core AMD system.
//
// A UDP packet generator on core 0 sends 1000-byte-payload packets to a sink
// on core 2 (a different socket). Barrelfish connects two user-space stacks
// point-to-point with URPC (descriptor message + payload buffer); the
// baseline is an in-kernel shared-queue stack (syscalls, queue lock, kernel
// buffer copies). Reported: application-level throughput, D-cache misses per
// packet, and HyperTransport traffic per packet and link utilization in each
// direction.
#include <cstdio>

#include "baseline/shared_netstack.h"
#include "bench_util.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/packet_channel.h"
#include "net/stack.h"
#include "net/wire.h"
#include "sim/executor.h"

namespace mk {
namespace {

using net::Packet;
using sim::Cycles;
using sim::Task;

constexpr int kGenCore = 0;   // package 0
constexpr int kSinkCore = 2;  // package 1 (different socket)
constexpr std::size_t kPayload = 1000;
constexpr int kPackets = 1500;
constexpr net::Ipv4Addr kGenIp = net::MakeIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kSinkIp = net::MakeIp(10, 0, 0, 2);

struct Results {
  double mbit_per_s = 0;
  double dcache_misses_per_packet = 0;
  double fwd_dwords_per_packet = 0;   // source -> sink
  double rev_dwords_per_packet = 0;   // sink -> source
  double fwd_utilization = 0;
  double rev_utilization = 0;
};

Results Finish(hw::Machine& m, Cycles elapsed) {
  Results r;
  double seconds = static_cast<double>(elapsed) / (m.spec().clock_ghz * 1e9);
  r.mbit_per_s = kPackets * kPayload * 8.0 / seconds / 1e6;
  auto total = m.counters().Total();
  r.dcache_misses_per_packet = static_cast<double>(total.cache_misses) / kPackets;
  r.fwd_dwords_per_packet = static_cast<double>(m.counters().link_dwords(0, 1)) / kPackets;
  r.rev_dwords_per_packet = static_cast<double>(m.counters().link_dwords(1, 0)) / kPackets;
  double dword_cycles = m.cost().cycles_per_dword;
  r.fwd_utilization =
      static_cast<double>(m.counters().link_dwords(0, 1)) * dword_cycles / elapsed;
  r.rev_utilization =
      static_cast<double>(m.counters().link_dwords(1, 0)) * dword_cycles / elapsed;
  return r;
}

Task<> BarrelfishGen(net::NetStack& stack, int packets) {
  std::vector<std::uint8_t> payload(kPayload, 0x42);
  for (int i = 0; i < packets; ++i) {
    co_await stack.UdpSendTo(1234, kSinkIp, 7, payload);
  }
}

Task<> BarrelfishPump(net::PacketChannel& ch, net::NetStack& sink, int packets) {
  for (int i = 0; i < packets; ++i) {
    Packet p = co_await ch.Recv();
    co_await sink.Input(std::move(p));
  }
}

Task<> BarrelfishSink(net::NetStack::UdpSocket& sock, int packets) {
  for (int i = 0; i < packets; ++i) {
    (void)co_await sock.Recv();  // read and discard
  }
}

Results RunBarrelfish() {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd2x2());
  net::NetStack gen(m, kGenCore, kGenIp, {2, 0, 0, 0, 0, 1});
  net::NetStack sink(m, kSinkCore, kSinkIp, {2, 0, 0, 0, 0, 2});
  gen.AddArp(kSinkIp, {2, 0, 0, 0, 0, 2});
  net::PacketChannel ch(m, kGenCore, kSinkCore);
  gen.SetOutput([&ch](Packet p) -> Task<> { co_await ch.Send(std::move(p)); });
  auto& sock = sink.UdpBind(7);
  exec.Spawn(BarrelfishGen(gen, kPackets));
  exec.Spawn(BarrelfishPump(ch, sink, kPackets));
  exec.Spawn(BarrelfishSink(sock, kPackets));
  Cycles elapsed = exec.Run();
  return Finish(m, elapsed);
}

Task<> LinuxGen(hw::Machine& m, baseline::SharedKernelLoopback& loop, int packets) {
  // The kernel stack builds the frame; the generator hands over the payload.
  net::EthHeader eth;
  net::IpHeader ip;
  ip.src = kGenIp;
  ip.dst = kSinkIp;
  std::vector<std::uint8_t> payload(kPayload, 0x42);
  for (int i = 0; i < packets; ++i) {
    Packet frame =
        net::BuildUdpFrame(eth, ip, net::UdpHeader{1234, 7, 0}, payload.data(),
                           payload.size());
    co_await loop.Send(kGenCore, std::move(frame));
  }
  (void)m;
}

Task<> LinuxSink(baseline::SharedKernelLoopback& loop, int packets) {
  for (int i = 0; i < packets; ++i) {
    (void)co_await loop.Recv(kSinkCore);
  }
}

Results RunLinux() {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd2x2());
  baseline::SharedKernelLoopback loop(m);
  exec.Spawn(LinuxGen(m, loop, kPackets));
  exec.Spawn(LinuxSink(loop, kPackets));
  Cycles elapsed = exec.Run();
  return Finish(m, elapsed);
}

}  // namespace
}  // namespace mk

int main(int argc, char** argv) {
  using namespace mk;
  bench::TraceSession trace_session(bench::ParseTraceFlags(argc, argv));
  bench::ParseThreadsFlag(argc, argv);  // single-domain bench: host threads cannot change its schedule (sim/parallel.h)
  bench::PrintHeader("Table 4: IP loopback on 2x2-core AMD (1000-byte UDP payloads)");
  Results bf = RunBarrelfish();
  Results lx = RunLinux();
  std::printf("%-44s %12s %12s %18s\n", "", "Barrelfish", "Linux", "paper (BF / Linux)");
  std::printf("%-44s %12.0f %12.0f %18s\n", "Throughput (Mbit/s)", bf.mbit_per_s,
              lx.mbit_per_s, "2154 / 1823");
  std::printf("%-44s %12.1f %12.1f %18s\n", "Dcache misses per packet",
              bf.dcache_misses_per_packet, lx.dcache_misses_per_packet, "21 / 77");
  std::printf("%-44s %12.0f %12.0f %18s\n", "source->sink HT traffic per packet (dwords)",
              bf.fwd_dwords_per_packet, lx.fwd_dwords_per_packet, "467 / 657");
  std::printf("%-44s %12.0f %12.0f %18s\n", "sink->source HT traffic per packet (dwords)",
              bf.rev_dwords_per_packet, lx.rev_dwords_per_packet, "188 / 550");
  std::printf("%-44s %11.0f%% %11.0f%% %18s\n", "source->sink HT link utilization",
              bf.fwd_utilization * 100, lx.fwd_utilization * 100, "8% / 11%");
  std::printf("%-44s %11.0f%% %11.0f%% %18s\n", "sink->source HT link utilization",
              bf.rev_utilization * 100, lx.rev_utilization * 100, "3% / 9%");
  std::printf(
      "\nShape: URPC loopback beats the shared-queue kernel stack on throughput while\n"
      "touching fewer cache lines and moving less interconnect traffic, especially in\n"
      "the reverse (sink->source) direction, because nothing but the channel and the\n"
      "payload is shared.\n");
  return 0;
}
