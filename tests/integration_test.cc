// End-to-end integration tests: boot the full multikernel (machine, CPU
// drivers, SKB with online measurement, monitors, capability system, virtual
// memory, services, replicated FS) and exercise cross-module scenarios.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "caps/capability.h"
#include "fs/ramfs.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "idc/name_service.h"
#include "idc/service.h"
#include "kernel/cpu_driver.h"
#include "mm/vspace.h"
#include "monitor/monitor.h"
#include "sim/executor.h"
#include "skb/skb.h"

namespace mk {
namespace {

using kernel::CpuDriver;
using sim::Cycles;
using sim::Task;

// A fully booted multikernel on the 8x4-core AMD machine.
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

TEST(Integration, BootMeasuresLatenciesAndBuildsRoutes) {
  System s;
  EXPECT_GT(s.skb.facts().All("urpc_latency").size(), 0u);
  auto route = s.sys.EffectiveRoute(0, true);
  EXPECT_EQ(route.nodes.size(), 8u);
  s.sys.Shutdown();
  s.exec.Run();
}

TEST(Integration, UserLevelMemoryManagementLifecycle) {
  // The full section 4.7 flow: a RAM cap for 1 MiB of physical memory,
  // two-phase retype agreement, map, touch from many cores, unmap with a
  // monitor-driven shootdown, revoke.
  System s;
  caps::CapId root = s.sys.InstallRootCap(0x40000000, 1 << 20);

  std::vector<int> all_cores;
  for (int c = 0; c < 32; ++c) {
    all_cores.push_back(c);
  }
  mm::VSpace vspace(s.machine, s.sys.on(0).caps(), all_cores);
  vspace.SetShootdownHook(
      [&s](int initiator, std::vector<std::uint64_t> pages) -> Task<> {
        for (std::uint64_t page : pages) {
          auto r = co_await s.sys.on(initiator).GlobalInvalidate(
              page, 1, monitor::Protocol::kNumaMulticast, monitor::OpFlags{});
          EXPECT_TRUE(r.all_yes);
        }
      });

  s.exec.Spawn([](System& ss, mm::VSpace& vs, caps::CapId r) -> Task<> {
    // Retype agreed by every replica.
    auto retype = co_await ss.sys.on(0).GlobalRetype(
        r, caps::CapType::kFrame, 4 * hw::kPageSize, 1, monitor::Protocol::kNumaMulticast);
    EXPECT_TRUE(retype.committed);
    auto frames = ss.sys.on(0).caps().Descendants(r);
    EXPECT_EQ(frames.size(), 1u);
    if (frames.empty()) {
      ss.sys.Shutdown();
      co_return;
    }
    EXPECT_EQ(vs.Map(frames[0], 0x400000, mm::Perms{true}), mm::MapErr::kOk);
    // Touch from spread-out cores.
    for (int c : {0, 9, 18, 27, 31}) {
      std::uint64_t pa = co_await vs.Translate(c, 0x400000 + 64u * c);
      EXPECT_NE(pa, ~std::uint64_t{0});
      EXPECT_TRUE(ss.machine.tlb(c).Contains(0x400000));
    }
    // Unmap drives the shootdown; nothing stale may remain anywhere.
    EXPECT_EQ(co_await vs.Unmap(0, 0x400000, 4 * hw::kPageSize), mm::MapErr::kOk);
    for (int c = 0; c < 32; ++c) {
      EXPECT_FALSE(ss.machine.tlb(c).Contains(0x400000)) << c;
    }
    // Revoke the frame everywhere, making the RAM retypeable again.
    auto revoke = co_await ss.sys.on(5).GlobalRevoke(r, monitor::Protocol::kNumaMulticast);
    EXPECT_TRUE(revoke.committed);
    auto retype2 = co_await ss.sys.on(0).GlobalRetype(
        r, caps::CapType::kPageTable, hw::kPageSize, 2, monitor::Protocol::kNumaMulticast);
    EXPECT_TRUE(retype2.committed);
    ss.sys.Shutdown();
  }(s, vspace, root));
  s.exec.Run();
  EXPECT_TRUE(s.sys.ReplicasConsistent());
}

struct KvReq {
  std::uint32_t op;  // 0 = put, 1 = get
  std::uint32_t key;
  std::uint64_t value;
};
struct KvResp {
  std::uint64_t value;
  std::uint32_t found;
};

TEST(Integration, ServiceBackedByReplicatedFsUnderHotplug) {
  // A key-value service stores its data in the replicated FS; clients on
  // several cores use it through the typed IDC layer while a core is
  // hot-unplugged and replugged mid-run.
  System s;
  idc::NameService names(s.machine, 0);
  fs::ReplicatedFs rfs(s.sys);
  std::map<std::uint32_t, std::uint64_t> kv;  // service-private index
  idc::Service<KvReq, KvResp> svc(
      s.machine, names, 4, "kv", [&kv](const KvReq& req) -> Task<KvResp> {
        if (req.op == 0) {
          kv[req.key] = req.value;
          co_return KvResp{req.value, 1};
        }
        auto it = kv.find(req.key);
        co_return KvResp{it == kv.end() ? 0 : it->second,
                         it == kv.end() ? 0u : 1u};
      });
  s.exec.Spawn(svc.Serve());
  s.exec.Spawn([](System& ss, idc::NameService& nn, idc::Service<KvReq, KvResp>& sv,
                  fs::ReplicatedFs& f) -> Task<> {
    co_await sv.Export();
    auto client = co_await idc::ServiceClient<KvReq, KvResp>::Connect(ss.machine, nn, sv,
                                                                      20);
    EXPECT_NE(client, nullptr);
    (void)co_await client->Call(KvReq{0, 7, 777});
    (void)co_await f.Create(20, "/kv/checkpoint");
    std::vector<std::uint8_t> ckpt = {7, 7, 7};
    (void)co_await f.Write(20, "/kv/checkpoint", std::move(ckpt));

    // Take a core down mid-run, keep operating, bring it back.
    (void)co_await ss.sys.OfflineCore(0, 28);
    KvResp got = co_await client->Call(KvReq{1, 7, 0});
    EXPECT_EQ(got.value, 777u);
    EXPECT_EQ(got.found, 1u);
    std::vector<std::uint8_t> more = {8};
    (void)co_await f.Append(3, "/kv/checkpoint", std::move(more));
    (void)co_await ss.sys.OnlineCore(0, 28);
    co_await f.SyncReplica(0, 28);

    auto data = co_await f.Read(28, "/kv/checkpoint");
    EXPECT_TRUE(data.has_value());
    EXPECT_EQ(data->size(), 4u);
    sv.Stop();
    ss.sys.Shutdown();
  }(s, names, svc, rfs));
  s.exec.Run();
  EXPECT_TRUE(s.sys.ReplicasConsistent());
  EXPECT_TRUE(rfs.ReplicasConsistent());
}

TEST(Integration, ConcurrentGlobalOperationsDoNotInterfere) {
  // Shootdowns, retypes, and FS mutations all in flight at once; everything
  // completes and every replica family converges.
  System s;
  fs::ReplicatedFs rfs(s.sys);
  caps::CapId root = s.sys.InstallRootCap(0, 64 << 20);
  int done = 0;
  constexpr int kTasks = 6;
  for (int c = 0; c < 32; ++c) {
    s.machine.tlb(c).Insert(0xabc000, hw::TlbEntry{});
  }
  auto finish = [](System& ss, int& d) {
    if (++d == kTasks) {
      ss.sys.Shutdown();
    }
  };
  s.exec.Spawn([](System& ss, int& d, decltype(finish)& fin) -> Task<> {
    auto r = co_await ss.sys.on(0).GlobalInvalidate(0xabc000, 1,
                                                    monitor::Protocol::kNumaMulticast,
                                                    monitor::OpFlags{});
    EXPECT_TRUE(r.all_yes);
    fin(ss, d);
  }(s, done, finish));
  s.exec.Spawn([](System& ss, caps::CapId r, int& d, decltype(finish)& fin) -> Task<> {
    auto result = co_await ss.sys.on(9).GlobalRetype(r, caps::CapType::kFrame, 4096, 2,
                                                     monitor::Protocol::kMulticast);
    EXPECT_TRUE(result.committed);
    fin(ss, d);
  }(s, root, done, finish));
  for (int i = 0; i < 4; ++i) {
    s.exec.Spawn([](System& ss, fs::ReplicatedFs& f, int idx, int& d,
                    decltype(finish)& fin) -> Task<> {
      std::string path = "/c" + std::to_string(idx);
      EXPECT_EQ(co_await f.Create(idx * 7, path), fs::FsErr::kOk);
      std::vector<std::uint8_t> payload = {1, 2, 3};
      EXPECT_EQ(co_await f.Write(idx * 5, path, std::move(payload)), fs::FsErr::kOk);
      fin(ss, d);
    }(s, rfs, i, done, finish));
  }
  s.exec.Run();
  EXPECT_EQ(done, kTasks);
  EXPECT_TRUE(s.sys.ReplicasConsistent());
  EXPECT_TRUE(rfs.ReplicasConsistent());
  for (int c = 0; c < 32; ++c) {
    EXPECT_FALSE(s.machine.tlb(c).Contains(0xabc000));
  }
}

}  // namespace
}  // namespace mk
