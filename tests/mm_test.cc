// Tests for memory management: virtual address spaces.
#include <gtest/gtest.h>

#include "hw/machine.h"
#include "hw/platform.h"
#include "mm/vspace.h"
#include "sim/executor.h"

namespace mk::mm {
namespace {

using sim::Task;

struct VsFixture {
  VsFixture() : machine(exec, hw::Amd4x4()) {
    root = caps.InstallRoot(0x1000000, 64 << 20);
    // Pre-split the root so each MakeFrame call retypes a fresh RAM region
    // (a RAM cap with descendants cannot be retyped again).
    auto split = caps.Retype(root, caps::CapType::kRam, 1 << 20, 32);
    EXPECT_EQ(split.err, caps::CapErr::kOk);
    regions = split.children;
  }
  caps::CapId MakeFrame(std::uint64_t bytes) {
    EXPECT_LT(next_region, regions.size());
    auto r = caps.Retype(regions[next_region++], caps::CapType::kFrame, bytes, 1);
    EXPECT_EQ(r.err, caps::CapErr::kOk);
    return r.children.empty() ? caps::kNoCap : r.children[0];
  }
  std::vector<caps::CapId> regions;
  std::size_t next_region = 0;
  sim::Executor exec;
  hw::Machine machine;
  caps::CapDb caps;
  caps::CapId root;
};

TEST(VSpace, MapThenTranslate) {
  VsFixture f;
  VSpace vs(f.machine, f.caps, {0, 1});
  caps::CapId frame = f.MakeFrame(2 * hw::kPageSize);
  ASSERT_EQ(vs.Map(frame, 0x400000, Perms{true}), MapErr::kOk);
  EXPECT_TRUE(vs.IsMapped(0x400000));
  EXPECT_TRUE(vs.IsMapped(0x401000));
  EXPECT_FALSE(vs.IsMapped(0x402000));
  std::uint64_t pa = 0;
  f.exec.Spawn([](VSpace& v, std::uint64_t& out) -> Task<> {
    out = co_await v.Translate(0, 0x401123);
  }(vs, pa));
  f.exec.Run();
  const caps::Capability* cap = f.caps.Get(frame);
  EXPECT_EQ(pa, cap->base + hw::kPageSize + 0x123);
  // The TLB now caches it.
  EXPECT_TRUE(f.machine.tlb(0).Contains(0x401000));
  EXPECT_EQ(f.machine.counters().core(0).tlb_misses, 1u);
}

// Regression for a hot-path flaw: the TLB-hit branch of Translate used to
// co_await Delay(1), pushing one event through the executor per hit. Hits
// must complete synchronously — zero scheduled events, zero simulated time.
TEST(VSpace, TlbHitTranslationAddsNoEvents) {
  VsFixture f;
  VSpace vs(f.machine, f.caps, {0});
  caps::CapId frame = f.MakeFrame(hw::kPageSize);
  ASSERT_EQ(vs.Map(frame, 0x400000, Perms{true}), MapErr::kOk);
  // First translation misses: it walks the tables (charged, event-driven)
  // and fills the TLB.
  f.exec.Spawn([](VSpace& v) -> Task<> {
    (void)co_await v.Translate(0, 0x400123);
  }(vs));
  f.exec.Run();
  ASSERT_TRUE(f.machine.tlb(0).Contains(0x400000));
  ASSERT_GT(f.exec.events_dispatched(), 0u);
  const std::uint64_t events_after_miss = f.exec.events_dispatched();
  const sim::Cycles now_after_miss = f.exec.now();
  // A hundred hits: no new events, no simulated time, same translation.
  std::uint64_t sum = 0;
  f.exec.Spawn([](VSpace& v, std::uint64_t& s) -> Task<> {
    for (int i = 0; i < 100; ++i) {
      s += co_await v.Translate(0, 0x400123);
    }
  }(vs, sum));
  f.exec.Run();
  const caps::Capability* cap = f.caps.Get(frame);
  EXPECT_EQ(sum, 100u * (cap->base + 0x123));
  EXPECT_EQ(f.exec.events_dispatched(), events_after_miss);
  EXPECT_EQ(f.exec.now(), now_after_miss);
  EXPECT_EQ(f.machine.counters().core(0).tlb_misses, 1u);
}

TEST(VSpace, MapRejectsNonFrameAndOverlap) {
  VsFixture f;
  VSpace vs(f.machine, f.caps, {0});
  EXPECT_EQ(vs.Map(f.root, 0x400000, Perms{}), MapErr::kBadCap);  // RAM, not frame
  caps::CapId frame = f.MakeFrame(hw::kPageSize);
  ASSERT_EQ(vs.Map(frame, 0x400000, Perms{}), MapErr::kOk);
  EXPECT_EQ(vs.Map(frame, 0x400000, Perms{}), MapErr::kOverlap);
  EXPECT_EQ(vs.Map(frame, 0x400007, Perms{}), MapErr::kBadAlign);
}

TEST(VSpace, MapRespectsFrameRights) {
  VsFixture f;
  VSpace vs(f.machine, f.caps, {0});
  caps::CapId frame = f.MakeFrame(hw::kPageSize);
  auto ro = f.caps.Copy(frame, caps::Rights{true, false, false});
  ASSERT_EQ(ro.err, caps::CapErr::kOk);
  EXPECT_EQ(vs.Map(ro.id, 0x500000, Perms{true}), MapErr::kNoRights);
  EXPECT_EQ(vs.Map(ro.id, 0x500000, Perms{false}), MapErr::kOk);
}

TEST(VSpace, UnmapRemovesMappingAndTlbEntries) {
  VsFixture f;
  VSpace vs(f.machine, f.caps, {0, 1, 2});
  caps::CapId frame = f.MakeFrame(hw::kPageSize);
  ASSERT_EQ(vs.Map(frame, 0x400000, Perms{}), MapErr::kOk);
  f.exec.Spawn([](VSpace& v) -> Task<> {
    // Warm two TLBs.
    (void)co_await v.Translate(1, 0x400000);
    (void)co_await v.Translate(2, 0x400000);
    MapErr err = co_await v.Unmap(0, 0x400000, hw::kPageSize);
    EXPECT_EQ(err, MapErr::kOk);
  }(vs));
  f.exec.Run();
  EXPECT_FALSE(vs.IsMapped(0x400000));
  // The TLB consistency invariant: no stale entry on any sharing core.
  EXPECT_FALSE(f.machine.tlb(1).Contains(0x400000));
  EXPECT_FALSE(f.machine.tlb(2).Contains(0x400000));
}

TEST(VSpace, ProtectDowngradesWritability) {
  VsFixture f;
  VSpace vs(f.machine, f.caps, {0});
  caps::CapId frame = f.MakeFrame(2 * hw::kPageSize);
  ASSERT_EQ(vs.Map(frame, 0x600000, Perms{true}), MapErr::kOk);
  EXPECT_TRUE(vs.IsWritable(0x600000));
  f.exec.Spawn([](VSpace& v) -> Task<> {
    MapErr err = co_await v.Protect(0, 0x600000, 2 * hw::kPageSize);
    EXPECT_EQ(err, MapErr::kOk);
  }(vs));
  f.exec.Run();
  EXPECT_TRUE(vs.IsMapped(0x600000));
  EXPECT_FALSE(vs.IsWritable(0x600000));
  EXPECT_FALSE(vs.IsWritable(0x601000));
}

TEST(VSpace, UnmapOfUnmappedFails) {
  VsFixture f;
  VSpace vs(f.machine, f.caps, {0});
  f.exec.Spawn([](VSpace& v) -> Task<> {
    EXPECT_EQ(co_await v.Unmap(0, 0x400000, hw::kPageSize), MapErr::kNotMapped);
    EXPECT_EQ(co_await v.Unmap(0, 0x400001, hw::kPageSize), MapErr::kBadAlign);
  }(vs));
  f.exec.Run();
}

TEST(VSpace, ShootdownHookDrivesInvalidation) {
  VsFixture f;
  VSpace vs(f.machine, f.caps, {0, 1});
  caps::CapId frame = f.MakeFrame(hw::kPageSize);
  ASSERT_EQ(vs.Map(frame, 0x400000, Perms{}), MapErr::kOk);
  int hook_calls = 0;
  std::vector<std::uint64_t> hook_pages;
  vs.SetShootdownHook(
      [&f, &hook_calls, &hook_pages](int initiator, std::vector<std::uint64_t> pages) -> Task<> {
        ++hook_calls;
        hook_pages = pages;
        for (int core : {0, 1}) {
          for (std::uint64_t p : pages) {
            f.machine.tlb(core).InvalidateNoCost(p);
          }
        }
        (void)initiator;
        co_return;
      });
  f.exec.Spawn([](VSpace& v) -> Task<> {
    (void)co_await v.Translate(1, 0x400000);
    EXPECT_EQ(co_await v.Unmap(0, 0x400000, hw::kPageSize), MapErr::kOk);
  }(vs));
  f.exec.Run();
  EXPECT_EQ(hook_calls, 1);
  EXPECT_EQ(hook_pages, std::vector<std::uint64_t>{0x400000});
  EXPECT_FALSE(f.machine.tlb(1).Contains(0x400000));
}

TEST(VSpace, TableNodesGrowWithSparseMappings) {
  VsFixture f;
  VSpace vs(f.machine, f.caps, {0});
  std::size_t before = vs.table_nodes();
  caps::CapId f1 = f.MakeFrame(hw::kPageSize);
  caps::CapId f2 = f.MakeFrame(hw::kPageSize);
  ASSERT_EQ(vs.Map(f1, 0x0000400000, Perms{}), MapErr::kOk);
  // A distant address needs a fresh subtree.
  ASSERT_EQ(vs.Map(f2, 0x7f8000000000, Perms{}), MapErr::kOk);
  EXPECT_GE(vs.table_nodes(), before + 6);
}

}  // namespace
}  // namespace mk::mm
