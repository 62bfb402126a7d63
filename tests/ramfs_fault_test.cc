// fs::ReplicatedFs under fault injection — the S1 bugfix sweep's regression
// net. A replica halting mid-collective used to leave two latent bugs:
// the one-phase mutation read its result map through operator[] (a failed
// collective silently reported FsErr::kOk), and a redelivered PendingOp
// re-applied on replicas that had already applied it (doubled append bytes,
// kOk->kNotFound flips on remove). The fixes: per-path op seq numbers with
// an applied-mark dup check, a bounded redelivery loop on retryable
// collective timeouts, and an explicit kUnavailable error for delivery
// failure. These tests pin all three.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "fs/ramfs.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "kernel/cpu_driver.h"
#include "monitor/monitor.h"
#include "sim/executor.h"
#include "skb/skb.h"

namespace mk::fs {
namespace {

using kernel::CpuDriver;
using sim::Cycles;
using sim::Task;

struct Fixture {
  explicit Fixture(hw::PlatformSpec spec = hw::Amd4x4())
      : machine(exec, std::move(spec)),
        drivers(CpuDriver::BootAll(machine)),
        skb(machine),
        sys(machine, skb, drivers),
        fs(sys) {
    skb.PopulateFromHardware();
    sys.Boot();
  }
  sim::Executor exec;
  hw::Machine machine;
  std::vector<std::unique_ptr<CpuDriver>> drivers;
  skb::Skb skb;
  monitor::MonitorSystem sys;
  ReplicatedFs fs;
};

struct ScopedInjector {
  explicit ScopedInjector(const fault::FaultPlan& plan) : inj(plan) { inj.Install(); }
  ~ScopedInjector() { inj.Uninstall(); }
  fault::Injector inj;
};

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(RamfsFault, ParticipantHaltMidAppendConvergesWithoutDoubleApply) {
  // Core 7 halts while an append stream is in flight: whichever collective
  // straddles the halt times out, is redelivered under a fresh op id, and
  // must not double-apply on survivors that already applied it. The exact
  // final byte count is the assertion — one 'x' per acknowledged append.
  fault::FaultPlan plan;
  plan.HaltCore(7, /*at=*/30'000);
  ScopedInjector s(plan);
  Fixture f;
  int ok_appends = 0;
  std::string contents;
  f.exec.Spawn([](Fixture& fx, int& acked, std::string& out) -> Task<> {
    (void)co_await fx.fs.Create(0, "/log");
    for (int i = 0; i < 40; ++i) {
      if (co_await fx.fs.Append(3, "/log", Bytes("x")) == FsErr::kOk) {
        ++acked;
      }
    }
    auto data = co_await fx.fs.Read(0, "/log");
    EXPECT_TRUE(data.has_value());
    if (data.has_value()) out.assign(data->begin(), data->end());
    fx.sys.Shutdown();
  }(f, ok_appends, contents));
  f.exec.Run();
  EXPECT_EQ(ok_appends, 40);
  EXPECT_EQ(contents.size(), 40u) << "append double-applied or lost on redelivery";
  // The halt must actually have forced a redelivery, or this test pinned
  // nothing; and the survivors (core 7's stale replica is excluded from the
  // baseline) must agree byte-for-byte, applied-marks included.
  EXPECT_GT(f.fs.redeliveries(), 0u);
  EXPECT_TRUE(f.fs.ReplicasConsistent());
}

TEST(RamfsFault, RedeliveredRemoveKeepsItsOriginalResult) {
  // Remove is the op whose result flips on re-execution (kOk -> kNotFound).
  // The applied-mark records the first result so every delivery attempt
  // reports the same verdict.
  fault::FaultPlan plan;
  plan.HaltCore(11, /*at=*/30'000);
  ScopedInjector s(plan);
  Fixture f;
  f.exec.Spawn([](Fixture& fx) -> Task<> {
    for (int i = 0; i < 12; ++i) {
      const std::string path = "/f" + std::to_string(i);
      EXPECT_EQ(co_await fx.fs.Create(2, path), FsErr::kOk);
      EXPECT_EQ(co_await fx.fs.Remove(5, path), FsErr::kOk) << path;
      EXPECT_EQ(co_await fx.fs.Remove(5, path), FsErr::kNotFound) << path;
    }
    fx.sys.Shutdown();
  }(f));
  f.exec.Run();
  EXPECT_TRUE(f.fs.ReplicasConsistent());
}

TEST(RamfsFault, MutationsAfterExclusionKeepSurvivorsConsistent) {
  // Long-running write/append/remove mix across the halt: the survivors'
  // replicas (files AND applied-seq marks) must stay digest-identical, so a
  // later redelivery would be skipped or applied uniformly everywhere.
  fault::FaultPlan plan;
  plan.HaltCore(4, /*at=*/40'000);
  ScopedInjector s(plan);
  Fixture f;
  f.exec.Spawn([](Fixture& fx) -> Task<> {
    (void)co_await fx.fs.Create(1, "/a");
    (void)co_await fx.fs.Create(9, "/b");
    for (int i = 0; i < 30; ++i) {
      (void)co_await fx.fs.Append(static_cast<int>(i % 16), "/a",
                                  Bytes(std::to_string(i)));
      if (i % 5 == 0) {
        (void)co_await fx.fs.Write(6, "/b", Bytes("gen" + std::to_string(i)));
      }
    }
    (void)co_await fx.fs.Remove(3, "/b");
    auto a0 = co_await fx.fs.Read(0, "/a");
    auto a15 = co_await fx.fs.Read(15, "/a");
    EXPECT_TRUE(a0.has_value());
    EXPECT_TRUE(a15.has_value());
    if (a0.has_value() && a15.has_value()) {
      EXPECT_EQ(*a0, *a15);
    }
    fx.sys.Shutdown();
  }(f));
  f.exec.Run();
  EXPECT_TRUE(f.fs.ReplicasConsistent());
}

TEST(RamfsFault, PlainRunsNeverRedeliver) {
  // Injector-gated: without a fault plan the retry loop must be invisible —
  // no redeliveries, no kUnavailable, and (by the golden gate) no schedule
  // perturbation. This is the determinism contract the store relies on.
  Fixture f;
  f.exec.Spawn([](Fixture& fx) -> Task<> {
    (void)co_await fx.fs.Create(0, "/p");
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(co_await fx.fs.Append(i, "/p", Bytes("y")), FsErr::kOk);
    }
    fx.sys.Shutdown();
  }(f));
  f.exec.Run();
  EXPECT_EQ(f.fs.redeliveries(), 0u);
  EXPECT_TRUE(f.fs.ReplicasConsistent());
}

}  // namespace
}  // namespace mk::fs
