// Figure 7: end-to-end unmap (permission change) latency on the 8x4-core AMD
// system - Barrelfish's message-based shootdown vs the IPI-based paths of
// Linux (mprotect) and Windows (VirtualProtect).
#include <cstdio>

#include "baseline/ipi_shootdown.h"
#include "bench_util.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "kernel/cpu_driver.h"
#include "monitor/monitor.h"
#include "serving.h"
#include "sim/executor.h"
#include "sim/stats.h"

namespace mk {
namespace {

using kernel::CpuDriver;
using monitor::OpFlags;
using monitor::Protocol;
using sim::Cycles;
using sim::Task;

constexpr std::uint64_t kVaddr = 0x400000;

void SeedTlbs(hw::Machine& machine, int ncores) {
  for (int c = 0; c < ncores; ++c) {
    machine.tlb(c).Insert(kVaddr, hw::TlbEntry{0x1000, true});
  }
}

// The full Barrelfish path: the application LRPCs its local monitor, the
// monitor runs the one-phase invalidate collective over the NUMA-aware
// multicast tree (with per-message marshaling/demux and TLB invalidations on
// every core), replies to the application over LRPC, and the user-level
// threads package redispatches the caller (the unoptimized message dispatch
// loop the paper calls out).
Task<> BarrelfishDriver(monitor::MonitorSystem& sys, int ncores, int iters,
                        sim::RunningStat& stat) {
  hw::Machine& m = sys.machine();
  CpuDriver& drv = sys.driver(0);
  auto noop = drv.RegisterEndpoint([](const kernel::LrpcMsg&) -> Task<> { co_return; });
  for (int i = 0; i < iters; ++i) {
    SeedTlbs(m, ncores);
    Cycles t0 = m.exec().now();
    co_await drv.LrpcCall(noop, kernel::LrpcMsg{});  // app -> monitor
    (void)co_await sys.on(0).GlobalInvalidate(kVaddr, 1, Protocol::kNumaMulticast,
                                              OpFlags{}, static_cast<std::uint16_t>(ncores));
    co_await drv.LrpcCall(noop, kernel::LrpcMsg{});  // monitor -> app reply
    co_await m.Compute(0, m.cost().unmap_user_path);
    if (i > 0) {
      stat.Add(static_cast<double>(m.exec().now() - t0));
    }
    co_await m.exec().Delay(20000);
  }
  sys.Shutdown();
}

double MeasureBarrelfish(int ncores) {
  bench::System s(hw::Amd8x4());
  sim::RunningStat stat;
  s.exec.Spawn(BarrelfishDriver(s.sys, ncores, 8, stat));
  s.exec.Run();
  return stat.mean();
}

Task<> IpiDriver(hw::Machine& m, baseline::IpiShootdown& sd, int ncores, int iters,
                 sim::RunningStat& stat) {
  for (int i = 0; i < iters; ++i) {
    SeedTlbs(m, ncores);
    Cycles latency = co_await sd.ChangeMapping(0, ncores, kVaddr, 1);
    if (i > 0) {
      stat.Add(static_cast<double>(latency));
    }
    co_await m.exec().Delay(20000);
  }
}

double MeasureIpi(baseline::IpiShootdown::Flavor flavor, int ncores) {
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd8x4());
  baseline::IpiShootdown sd(machine, flavor);
  sim::RunningStat stat;
  exec.Spawn(IpiDriver(machine, sd, ncores, 8, stat));
  exec.Run();
  return stat.mean();
}

}  // namespace
}  // namespace mk

int main(int argc, char** argv) {
  using namespace mk;
  bench::TraceSession trace_session(bench::ParseTraceFlags(argc, argv));
  bench::ParseThreadsFlag(argc, argv);  // single-domain bench: host threads cannot change its schedule (sim/parallel.h)
  bench::PrintHeader("Figure 7: end-to-end unmap latency (8x4-core AMD, cycles)");
  bench::SeriesTable table("cores");
  table.AddSeries("Windows");
  table.AddSeries("Linux");
  table.AddSeries("Barrelfish");
  for (int cores = 2; cores <= 32; cores += 2) {
    table.AddRow(cores,
                 {MeasureIpi(baseline::IpiShootdown::Flavor::kWindows, cores),
                  MeasureIpi(baseline::IpiShootdown::Flavor::kLinux, cores),
                  MeasureBarrelfish(cores)});
  }
  table.Print();
  std::printf(
      "\nPaper shape: both IPI baselines grow steeply (serial IPIs; Windows steepest,\n"
      "~55-60k at 32 cores; Linux ~35-40k). Barrelfish starts higher (LRPC + monitor\n"
      "marshaling + threads-package dispatch) but scales flatter on the multicast\n"
      "tree, overtaking Linux and Windows by the mid-range core counts.\n");
  return 0;
}
