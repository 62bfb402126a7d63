// Distributed services demo: the multikernel as a distributed system.
//
//  1. A typed service is exported through the name service and called from
//     another core over a monitor-established URPC binding (section 4.6).
//  2. A replicated in-memory file system (section 7's future-work direction):
//     reads are replica-local, writes are sequenced and propagated with a
//     one-phase-commit collective.
//  3. Core hotplug (section 3.3): a core powers down, global state moves on
//     without it, and the returning core catches up by state transfer.
//
// Build & run:  ./build/examples/distributed_services
#include <cstdio>
#include <map>
#include <string>

#include "fs/ramfs.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "idc/name_service.h"
#include "idc/service.h"
#include "kernel/cpu_driver.h"
#include "monitor/monitor.h"
#include "sim/executor.h"
#include "skb/skb.h"

using namespace mk;
using sim::Cycles;
using sim::Task;

namespace {

struct TimeReq {
  std::uint64_t dummy;
};
struct TimeResp {
  std::uint64_t cycles;
};

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

Task<> Demo(hw::Machine& machine, monitor::MonitorSystem& sys, idc::NameService& names,
            idc::Service<TimeReq, TimeResp>& clock_svc, fs::ReplicatedFs& rfs) {
  // --- Typed service via the name service ---
  std::map<std::string, std::string> props = {{"class", "clock"}};
  co_await clock_svc.Export(std::move(props));
  auto client = co_await idc::ServiceClient<TimeReq, TimeResp>::Connect(
      machine, names, clock_svc, 13);
  TimeResp resp = co_await client->Call(TimeReq{0});
  std::printf("clock service (core %d) called from core 13: t=%llu cycles\n",
              clock_svc.core(), static_cast<unsigned long long>(resp.cycles));

  // --- Replicated FS ---
  (void)co_await rfs.Create(2, "/etc/hosts");
  (void)co_await rfs.Write(2, "/etc/hosts", Bytes("10.0.0.1 barrelfish\n"));
  auto data = co_await rfs.Read(30, "/etc/hosts");  // far core, local replica
  std::printf("replicated fs: core 30 reads %zu bytes locally; replicas consistent: %s\n",
              data ? data->size() : 0, rfs.ReplicasConsistent() ? "yes" : "no");

  // --- Hotplug ---
  (void)co_await sys.OfflineCore(0, 17);
  (void)co_await rfs.Write(2, "/etc/hosts", Bytes("10.0.0.2 updated-while-17-down\n"));
  std::printf("core 17 offline (%d cores online); fs updated without it\n",
              sys.OnlineCount());
  (void)co_await sys.OnlineCore(0, 17);
  co_await rfs.SyncReplica(0, 17);  // fs state transfer for the stale replica
  std::printf("core 17 back online; caps consistent: %s, fs consistent: %s\n",
              sys.ReplicasConsistent() ? "yes" : "no",
              rfs.ReplicasConsistent() ? "yes" : "no");

  clock_svc.Stop();
  sys.Shutdown();
}

}  // namespace

int main() {
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd8x4());
  auto drivers = kernel::CpuDriver::BootAll(machine);
  skb::Skb skb(machine);
  skb.PopulateFromHardware();
  exec.Spawn(skb.MeasureUrpcLatencies());
  exec.Run();
  monitor::MonitorSystem sys(machine, skb, drivers);
  sys.Boot();
  idc::NameService names(machine, 0);
  idc::Service<TimeReq, TimeResp> clock_svc(
      machine, names, 4, "clock", [&exec](const TimeReq&) -> Task<TimeResp> {
        co_return TimeResp{exec.now()};
      });
  fs::ReplicatedFs rfs(sys);
  exec.Spawn(clock_svc.Serve());
  exec.Spawn(Demo(machine, sys, names, clock_svc, rfs));
  exec.Run();
  std::printf("done at simulated time %llu cycles\n",
              static_cast<unsigned long long>(exec.now()));
  return 0;
}
