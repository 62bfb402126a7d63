// Figure 8: two-phase commit on the 8x4-core AMD system - the latency of a
// single capability-retype agreement, and the per-operation cost when many
// operations are pipelined.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "monitor/monitor.h"
#include "serving.h"
#include "sim/executor.h"
#include "sim/stats.h"

namespace mk {
namespace {

using bench::System;
using monitor::Protocol;
using sim::Cycles;
using sim::Task;

Task<> SingleOps(System& s, std::vector<caps::CapId> roots, int ncores,
                 sim::RunningStat& stat) {
  for (std::size_t i = 0; i < roots.size(); ++i) {
    auto r = co_await s.sys.on(0).GlobalRetype(roots[i], caps::CapType::kFrame, 4096, 1,
                                               Protocol::kNumaMulticast, {},
                                               static_cast<std::uint16_t>(ncores));
    if (i > 0 && r.committed) {
      stat.Add(static_cast<double>(r.latency));
    }
    co_await s.exec.Delay(20000);
  }
  s.sys.Shutdown();
}

double MeasureSingle(int ncores) {
  System s(hw::Amd8x4());
  std::vector<caps::CapId> roots;
  for (int i = 0; i < 8; ++i) {
    roots.push_back(s.sys.InstallRootCap(static_cast<std::uint64_t>(i) << 24, 1 << 24));
  }
  sim::RunningStat stat;
  s.exec.Spawn(SingleOps(s, roots, ncores, stat));
  s.exec.Run();
  return stat.mean();
}

Task<> PipelinedWorker(System& s, caps::CapId root, int ncores, int* remaining) {
  (void)co_await s.sys.on(0).GlobalRetype(root, caps::CapType::kFrame, 4096, 1,
                                          Protocol::kNumaMulticast, {},
                                          static_cast<std::uint16_t>(ncores));
  if (--*remaining == 0) {
    s.sys.Shutdown();
  }
}

// Issues `ops` retypes of distinct caps concurrently from core 0 and reports
// the amortized per-operation cost.
double MeasurePipelined(int ncores) {
  System s(hw::Amd8x4());
  const int kOps = 16;
  std::vector<caps::CapId> roots;
  for (int i = 0; i < kOps; ++i) {
    roots.push_back(s.sys.InstallRootCap(static_cast<std::uint64_t>(i) << 24, 1 << 24));
  }
  int remaining = kOps;
  Cycles t0 = s.exec.now();
  for (int i = 0; i < kOps; ++i) {
    s.exec.Spawn(PipelinedWorker(s, roots[static_cast<std::size_t>(i)], ncores, &remaining));
  }
  s.exec.Run();
  return static_cast<double>(s.exec.now() - t0) / kOps;
}

// --kill-core mode: the canonical fault plan (halt core 5 mid-2PC) driven
// through the same fig8 workload shape. Every retype must still commit among
// the survivors via presumed abort, and two executions must be bit-identical.
struct KillCoreRun {
  Cycles final_now = 0;
  std::uint64_t events_dispatched = 0;
  std::vector<Cycles> latencies;
  int attempts_total = 0;
  bool all_committed = true;
  bool dead_core_detected = false;
  bool all_specs_activated = false;
};

Task<> KillCoreOps(System& s, std::vector<caps::CapId> roots, KillCoreRun& out) {
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

KillCoreRun MeasureKillOneCore(bool print_activation_table) {
  fault::FaultPlan plan;
  plan.HaltCore(5, /*at=*/100'000);  // lands inside the second retype's prepare
  fault::Injector inj(plan);
  KillCoreRun out;
  {
    System s(hw::Amd8x4());
    std::vector<caps::CapId> roots;
    for (int i = 0; i < 4; ++i) {
      roots.push_back(s.sys.InstallRootCap(static_cast<std::uint64_t>(i) << 24, 1 << 24));
    }
    s.exec.Spawn(KillCoreOps(s, roots, out));
    s.exec.Run();
    out.final_now = s.exec.now();
    out.events_dispatched = s.exec.events_dispatched();
    out.dead_core_detected = s.sys.CoreFailed(5);
  }
  // Coverage accounting: a fault spec that never fired means the plan tested
  // nothing — surface it before the injector (and its counters) go away.
  if (print_activation_table) {
    inj.PrintActivationTable();
  }
  out.all_specs_activated = inj.AllSpecsActivated();
  return out;
}

int RunKillCoreMode(bench::TraceSession& session) {
  bench::PrintHeader("Figure 8 under fault: core 5 halted mid-2PC (8-core collective)");
  session.BeginRun("kill-core-run1");
  KillCoreRun a = MeasureKillOneCore(/*print_activation_table=*/true);
  session.BeginRun("kill-core-run2");
  KillCoreRun b = MeasureKillOneCore(/*print_activation_table=*/false);
  std::printf("%-28s", "per-op latency (cycles):");
  for (Cycles l : a.latencies) {
    std::printf(" %10llu", static_cast<unsigned long long>(l));
  }
  std::printf("\n%-28s %d (over %zu ops)\n", "attempts:", a.attempts_total,
              a.latencies.size());
  std::printf("%-28s %s\n", "all committed:", a.all_committed ? "yes" : "NO");
  std::printf("%-28s %s\n", "dead core detected:",
              a.dead_core_detected ? "yes" : "NO");
  bool deterministic = a.final_now == b.final_now &&
                       a.events_dispatched == b.events_dispatched &&
                       a.latencies == b.latencies &&
                       a.attempts_total == b.attempts_total;
  bench::PrintReplay(28, deterministic, a.final_now, a.events_dispatched, b.final_now,
                     b.events_dispatched);
  bool recovered = a.all_committed && a.dead_core_detected &&
                   a.attempts_total > static_cast<int>(a.latencies.size());
  std::printf("%-28s %s\n", "recovery (presumed abort):",
              recovered ? "yes (timed-out round retried among survivors)" : "NO");
  std::printf("%-28s %s\n", "fault coverage:",
              a.all_specs_activated ? "every spec fired" : "A SPEC NEVER FIRED");
  return deterministic && recovered && a.all_specs_activated ? 0 : 1;
}

}  // namespace
}  // namespace mk

int main(int argc, char** argv) {
  using namespace mk;
  bench::TraceFlags trace_flags = bench::ParseTraceFlags(argc, argv);
  bench::ParseThreadsFlag(argc, argv);  // single-domain bench: host threads cannot change its schedule (sim/parallel.h)
  bool kill_core = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--kill-core") == 0) {
      kill_core = true;
    }
  }
  bench::TraceSession session(trace_flags);
  if (kill_core) {
    return RunKillCoreMode(session);
  }
  if (session.active()) {
    // Traced mode: one labeled run per shape at 32 cores, not the sweep.
    bench::PrintHeader("Figure 8 (traced): two-phase commit at 32 cores");
    session.BeginRun("single-op");
    std::printf("single-op latency: %.0f cycles\n", MeasureSingle(32));
    session.BeginRun("pipelined");
    std::printf("pipelined per-op cost: %.0f cycles\n", MeasurePipelined(32));
    return 0;
  }
  bench::PrintHeader("Figure 8: two-phase commit (8x4-core AMD, cycles per operation)");
  bench::SeriesTable table("cores");
  table.AddSeries("single-op latency");
  table.AddSeries("cost when pipelining");
  for (int cores = 2; cores <= 32; cores += 2) {
    table.AddRow(cores, {MeasureSingle(cores), MeasurePipelined(cores)});
  }
  table.Print();
  std::printf(
      "\nPaper shape: 2PC serializes two multicast rounds, so single-op latency is\n"
      "roughly twice the shootdown cost and scales with the same multicast steps;\n"
      "pipelining amortizes the round trips so the per-op cost stays well below the\n"
      "latency (and below IPI-based shootdowns on Windows/Linux at 32 cores).\n");
  return 0;
}
