// Tests for the machine model: topology, coherence protocol, contention,
// traffic accounting, TLBs, IPIs.
#include <gtest/gtest.h>

#include <ostream>

#include "hw/machine.h"
#include "hw/platform.h"
#include "hw/topology.h"
#include "sim/executor.h"

namespace mk::hw {
namespace {

using sim::Cycles;
using sim::Task;

// Runs a coroutine to completion on a fresh executor and returns sim time.
template <typename Fn>
Cycles RunSim(sim::Executor& exec, Machine& m, Fn&& fn) {
  exec.Spawn(fn(m));
  return exec.Run();
}

TEST(Topology, PaperPlatformShapes) {
  for (const auto& spec : PaperPlatforms()) {
    Topology t(spec);
    EXPECT_EQ(t.num_cores(), spec.num_cores()) << spec.name;
    EXPECT_EQ(t.num_packages(), spec.packages) << spec.name;
  }
  EXPECT_EQ(Topology(Intel2x4()).num_cores(), 8);
  EXPECT_EQ(Topology(Amd2x2()).num_cores(), 4);
  EXPECT_EQ(Topology(Amd4x4()).num_cores(), 16);
  EXPECT_EQ(Topology(Amd8x4()).num_cores(), 32);
}

TEST(Topology, SquareTopologyHasTwoHopDiagonal) {
  Topology t(Amd4x4());
  EXPECT_EQ(t.Hops(0, 0), 0);
  EXPECT_EQ(t.Hops(0, 1), 1);
  EXPECT_EQ(t.Hops(0, 2), 1);
  EXPECT_EQ(t.Hops(0, 3), 2);  // diagonal of the square
  EXPECT_EQ(t.Diameter(), 2);
}

TEST(Topology, LadderTopologyDiameterThree) {
  Topology t(Amd8x4());
  EXPECT_EQ(t.Diameter(), 3);
  EXPECT_EQ(t.Hops(0, 1), 1);
  EXPECT_EQ(t.Hops(0, 7), 3);
}

TEST(Topology, NextHopAdvancesTowardsDestination) {
  Topology t(Amd8x4());
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      if (a == b) {
        EXPECT_EQ(t.NextHop(a, b), a);
        continue;
      }
      int n = t.NextHop(a, b);
      EXPECT_EQ(t.Hops(a, n), 1);
      EXPECT_EQ(t.Hops(n, b), t.Hops(a, b) - 1);
    }
  }
}

TEST(Topology, SharedCacheRelationships) {
  Topology intel(Intel2x4());
  // Intel: 2 packages x 2 dies x 2 cores; shared L2 per die.
  EXPECT_TRUE(intel.SharesCache(0, 1));    // same die
  EXPECT_FALSE(intel.SharesCache(0, 2));   // same package, different die
  EXPECT_FALSE(intel.SharesCache(0, 4));   // different package

  Topology amd(Amd4x4());
  EXPECT_TRUE(amd.SharesCache(0, 3));      // same package (shared L3)
  EXPECT_FALSE(amd.SharesCache(0, 4));     // different package
}

TEST(Topology, CoreToPackageMapping) {
  Topology t(Amd8x4());
  EXPECT_EQ(t.PackageOf(0), 0);
  EXPECT_EQ(t.PackageOf(3), 0);
  EXPECT_EQ(t.PackageOf(4), 1);
  EXPECT_EQ(t.PackageOf(31), 7);
  EXPECT_EQ(t.PackageLeaders(), (std::vector<int>{0, 4, 8, 12, 16, 20, 24, 28}));
  EXPECT_EQ(t.CoresOf(2), (std::vector<int>{8, 9, 10, 11}));
}

TEST(Topology, DisconnectedTopologyRejected) {
  PlatformSpec s = Generic(3, 1);
  s.links = {{0, 1}};  // package 2 unreachable
  EXPECT_THROW(Topology t(s), std::invalid_argument);
}

TEST(Coherence, LocalHitAfterFirstTouch) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  auto addr = m.mem().AllocLines(0, 1);
  RunSim(exec, m, [addr](Machine& mm) -> Task<> {
    Cycles first = co_await mm.mem().Read(0, addr);
    Cycles second = co_await mm.mem().Read(0, addr);
    EXPECT_GT(first, second);  // first touch fetches from memory
    EXPECT_EQ(second, mm.cost().l1_hit);
  });
}

TEST(Coherence, WriteInvalidatesRemoteCopy) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  auto addr = m.mem().AllocLines(0, 1);
  RunSim(exec, m, [addr](Machine& mm) -> Task<> {
    co_await mm.mem().Read(4, addr);   // core 4 (package 1) caches the line
    EXPECT_TRUE(mm.mem().HasLine(4, addr));
    co_await mm.mem().Write(0, addr);  // core 0 takes ownership
    EXPECT_FALSE(mm.mem().HasLine(4, addr));
    EXPECT_TRUE(mm.mem().HasLine(0, addr));
    EXPECT_EQ(mm.mem().OwnerOf(addr), 0);
  });
  EXPECT_EQ(m.counters().core(4).invalidations_recv, 1u);
}

TEST(Coherence, SingleWriterInvariant) {
  // After any interleaving of writes, exactly one core holds the line.
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  auto addr = m.mem().AllocLines(0, 1);
  for (int c = 0; c < m.num_cores(); ++c) {
    exec.Spawn([](Machine& mm, sim::Addr a, int core) -> Task<> {
      for (int i = 0; i < 5; ++i) {
        co_await mm.mem().Write(core, a);
      }
    }(m, addr, c));
  }
  exec.Run();
  auto sharers = m.mem().SharersOf(addr);
  EXPECT_NE(sharers, 0u);
  EXPECT_EQ(sharers & (sharers - 1), 0u) << "more than one copy after writes";
  EXPECT_EQ(sharers, std::uint64_t{1} << m.mem().OwnerOf(addr));
}

TEST(Coherence, DirtyLineSuppliedCacheToCache) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  auto addr = m.mem().AllocLines(0, 1);
  RunSim(exec, m, [addr](Machine& mm) -> Task<> {
    co_await mm.mem().Write(0, addr);
    co_await mm.mem().Read(4, addr);  // must come from core 0's cache
  });
  EXPECT_EQ(m.counters().core(4).c2c_transfers, 1u);
  EXPECT_EQ(m.counters().core(4).dram_fetches, 0u);
}

TEST(Coherence, SharedCacheTransferCheaperThanCrossPackage) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  auto addr = m.mem().AllocLines(0, 1);
  Cycles same_pkg = 0;
  Cycles cross_pkg = 0;
  RunSim(exec, m, [&, addr](Machine& mm) -> Task<> {
    co_await mm.mem().Write(0, addr);
    same_pkg = co_await mm.mem().Read(1, addr);  // same package: shared L3
    co_await mm.mem().Write(0, addr);
    cross_pkg = co_await mm.mem().Read(4, addr);  // package 1: cross HT
  });
  EXPECT_LT(same_pkg, cross_pkg);
  EXPECT_EQ(same_pkg, Amd4x4().cost.shared_cache_rt);
}

TEST(Coherence, CrossLatencyGrowsWithHops) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  auto addr = m.mem().AllocLines(0, 1);
  Cycles one_hop = 0;
  Cycles two_hop = 0;
  RunSim(exec, m, [&, addr](Machine& mm) -> Task<> {
    co_await mm.mem().Write(0, addr);
    one_hop = co_await mm.mem().Read(4, addr);   // package 1: 1 hop from 0
    co_await mm.mem().Write(0, addr);
    two_hop = co_await mm.mem().Read(12, addr);  // package 3: 2 hops from 0
  });
  auto cost = Amd4x4().cost;
  EXPECT_EQ(one_hop, cost.cross_rt_base + cost.cross_rt_per_hop);
  EXPECT_EQ(two_hop, cost.cross_rt_base + 2 * cost.cross_rt_per_hop);
}

TEST(Coherence, HomeControllerContentionSerializesWrites) {
  // Many cores writing lines homed on one node queue at its controller;
  // the Fig. 3 shared-memory pathology.
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  auto addr = m.mem().AllocLines(0, 1);
  std::vector<Cycles> latencies;
  for (int c = 0; c < 8; ++c) {
    exec.Spawn([](Machine& mm, sim::Addr a, int core, std::vector<Cycles>& out) -> Task<> {
      out.push_back(co_await mm.mem().Write(core, a));
    }(m, addr, c, latencies));
  }
  exec.Run();
  ASSERT_EQ(latencies.size(), 8u);
  // Later arrivals observe queueing: the max latency well exceeds the min.
  Cycles lo = *std::min_element(latencies.begin(), latencies.end());
  Cycles hi = *std::max_element(latencies.begin(), latencies.end());
  EXPECT_GE(hi, lo + 5 * m.cost().home_occupancy);
}

TEST(Coherence, PostedWriteChargesOnlyStoreBufferCost) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  auto addr = m.mem().AllocLines(0, 1);
  RunSim(exec, m, [addr](Machine& mm) -> Task<> {
    co_await mm.mem().Read(4, addr);
    Cycles posted = co_await mm.mem().WritePosted(0, addr);
    EXPECT_EQ(posted, mm.cost().store_posted);
    // Ownership still transferred.
    EXPECT_EQ(mm.mem().OwnerOf(addr), 0);
    EXPECT_FALSE(mm.mem().HasLine(4, addr));
  });
}

TEST(Coherence, PrefetchedReadCheaperThanBlockingMiss) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  auto a1 = m.mem().AllocLines(0, 1);
  auto a2 = m.mem().AllocLines(0, 1);
  RunSim(exec, m, [a1, a2](Machine& mm) -> Task<> {
    co_await mm.mem().Write(4, a1);
    co_await mm.mem().Write(4, a2);
    Cycles blocking = co_await mm.mem().Read(0, a1);
    co_await mm.exec().Delay(5000);  // drain the c2c source queue
    Cycles prefetched = co_await mm.mem().ReadPrefetched(0, a2);
    EXPECT_LT(prefetched, blocking);
    EXPECT_EQ(prefetched, mm.cost().prefetched_read);
  });
}

TEST(Coherence, TrafficAccountedOnLinks) {
  sim::Executor exec;
  Machine m(exec, Amd2x2());
  auto addr = m.mem().AllocLines(0, 1);
  RunSim(exec, m, [addr](Machine& mm) -> Task<> {
    co_await mm.mem().Write(0, addr);  // core 0, package 0
    co_await mm.mem().Read(2, addr);   // core 2, package 1: c2c across link
  });
  // Data must have crossed from package 0 to package 1.
  EXPECT_GE(m.counters().link_dwords(0, 1), std::uint64_t{Amd2x2().cost.data_dwords});
  // Probe/command traffic in the other direction too.
  EXPECT_GT(m.counters().link_dwords(1, 0), 0u);
}

TEST(Coherence, MultiLineOperationsChargePerLine) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  auto addr = m.mem().AllocLines(0, 8);
  RunSim(exec, m, [addr](Machine& mm) -> Task<> {
    co_await mm.mem().Write(0, addr, 8 * sim::kCacheLineBytes);
    Cycles eight_hits = co_await mm.mem().Read(0, addr, 8 * sim::kCacheLineBytes);
    EXPECT_EQ(eight_hits, 8 * mm.cost().l1_hit);
  });
  EXPECT_EQ(m.counters().core(0).stores, 8u);
}

TEST(Coherence, NumaHomeFollowsAllocationNode) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  auto a0 = m.mem().AllocLines(0, 1);
  auto a3 = m.mem().AllocLines(3, 1);
  EXPECT_EQ(m.mem().HomeNode(a0), 0);
  EXPECT_EQ(m.mem().HomeNode(a3), 3);
  // First-touch fetch from a remote home costs more than from the local one.
  Cycles local = 0;
  Cycles remote = 0;
  RunSim(exec, m, [&, a0, a3](Machine& mm) -> Task<> {
    local = co_await mm.mem().Read(0, a0);
    remote = co_await mm.mem().Read(0, a3);
  });
  EXPECT_LT(local, remote);
}

TEST(Tlb, InsertLookupInvalidate) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  Tlb& tlb = m.tlb(0);
  tlb.Insert(0x400000, TlbEntry{0x1000, true});
  TlbEntry e;
  EXPECT_TRUE(tlb.Lookup(0x400123, &e));  // same page
  EXPECT_EQ(e.paddr, 0x1000u);
  EXPECT_TRUE(e.writable);
  exec.Spawn([](Machine& mm) -> Task<> { co_await mm.tlb(0).Invalidate(0x400000); }(m));
  Cycles end = exec.Run();
  EXPECT_FALSE(tlb.Contains(0x400000));
  EXPECT_EQ(end, m.cost().tlb_invalidate);
  EXPECT_EQ(m.counters().core(0).tlb_invalidations, 1u);
}

TEST(Tlb, FlushClearsEverything) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  m.tlb(2).Insert(0x1000, {});
  m.tlb(2).Insert(0x2000, {});
  exec.Spawn([](Machine& mm) -> Task<> { co_await mm.tlb(2).FlushAll(); }(m));
  exec.Run();
  EXPECT_EQ(m.tlb(2).size(), 0u);
}

TEST(Ipi, DeliveryInvokesHandlerAfterWireDelay) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  Cycles delivered_at = 0;
  int got_vector = -1;
  m.ipi().SetHandler(5, [&](int vector, std::uint64_t) {
    delivered_at = exec.now();
    got_vector = vector;
  });
  exec.Spawn([](Machine& mm) -> Task<> { co_await mm.ipi().Send(0, 5, 0x42); }(m));
  exec.Run();
  EXPECT_EQ(got_vector, 0x42);
  EXPECT_GE(delivered_at, m.cost().ipi_send + m.cost().ipi_wire);
  EXPECT_EQ(m.counters().core(0).ipis_sent, 1u);
  EXPECT_EQ(m.counters().core(5).ipis_received, 1u);
}

TEST(Machine, ComputeSerializesOnOneCore) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  exec.Spawn([](Machine& mm) -> Task<> { co_await mm.Compute(0, 100); }(m));
  exec.Spawn([](Machine& mm) -> Task<> { co_await mm.Compute(0, 100); }(m));
  EXPECT_EQ(exec.Run(), 200u);  // serialized on core 0
}

TEST(Machine, ComputeOnDifferentCoresRunsInParallel) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  exec.Spawn([](Machine& mm) -> Task<> { co_await mm.Compute(0, 100); }(m));
  exec.Spawn([](Machine& mm) -> Task<> { co_await mm.Compute(1, 100); }(m));
  EXPECT_EQ(exec.Run(), 100u);
}

TEST(Machine, HeterogeneousCoresComputeAtTheirSpeed) {
  // Section 2.2: cores with the same ISA but different performance. A half-
  // speed core takes twice the cycles for the same work; memory is shared.
  PlatformSpec spec = Amd2x2();
  spec.core_speed = {1.0, 1.0, 0.5, 2.0};
  sim::Executor exec;
  Machine m(exec, spec);
  Cycles fast = 0;
  Cycles slow = 0;
  Cycles turbo = 0;
  exec.Spawn([](Machine& mm, Cycles& f, Cycles& s, Cycles& t) -> Task<> {
    Cycles t0 = mm.exec().now();
    co_await mm.Compute(0, 1000);
    f = mm.exec().now() - t0;
    t0 = mm.exec().now();
    co_await mm.Compute(2, 1000);
    s = mm.exec().now() - t0;
    t0 = mm.exec().now();
    co_await mm.Compute(3, 1000);
    t = mm.exec().now() - t0;
  }(m, fast, slow, turbo));
  exec.Run();
  EXPECT_EQ(fast, 1000u);
  EXPECT_EQ(slow, 2000u);
  EXPECT_EQ(turbo, 500u);
}

TEST(Machine, HomogeneousSpeedDefaultsToOne) {
  PlatformSpec spec = Amd4x4();
  EXPECT_DOUBLE_EQ(spec.SpeedOf(0), 1.0);
  EXPECT_DOUBLE_EQ(spec.SpeedOf(15), 1.0);
  spec.core_speed = {0.25};
  EXPECT_DOUBLE_EQ(spec.SpeedOf(0), 0.25);
  EXPECT_DOUBLE_EQ(spec.SpeedOf(1), 1.0);  // beyond the vector: default
}

TEST(Machine, TrapChargesCostAndCounts) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  exec.Spawn([](Machine& mm) -> Task<> { co_await mm.Trap(3); }(m));
  EXPECT_EQ(exec.Run(), m.cost().trap);
  EXPECT_EQ(m.counters().core(3).traps, 1u);
}

// --- Calibration checks against the paper's Table 2 (URPC latency is ~two
// transactions: the sender's invalidating write plus the receiver's fetch).
struct UrpcLatencyCase {
  const char* platform;
  int sender;
  int receiver;
  Cycles paper_latency;  // Table 2
};

// Prints the case as text. gtest would print the bytes of `platform`, a
// pointer that moves every run, into the name each test is listed under.
void PrintTo(const UrpcLatencyCase& c, std::ostream* os) {
  *os << c.platform << " core " << c.sender << " to " << c.receiver << ": "
      << c.paper_latency << " cycles";
}

class CoherenceCalibration : public ::testing::TestWithParam<UrpcLatencyCase> {};

TEST_P(CoherenceCalibration, TwoTransactionsApproximateTable2) {
  const auto& p = GetParam();
  PlatformSpec spec;
  for (auto& s : PaperPlatforms()) {
    if (s.name == p.platform) {
      spec = s;
    }
  }
  ASSERT_FALSE(spec.name.empty());
  sim::Executor exec;
  Machine m(exec, spec);
  auto addr = m.mem().AllocLines(0, 1);
  Cycles total = 0;
  exec.Spawn([](Machine& mm, sim::Addr a, int sender, int receiver, Cycles& out) -> Task<> {
    // Prime: receiver holds the line (polling), sender then writes, receiver
    // re-fetches — the section 4.6 fast path.
    co_await mm.mem().Read(receiver, a);
    out = co_await mm.mem().Write(sender, a);
    out += co_await mm.mem().Read(receiver, a);
  }(m, addr, p.sender, p.receiver, total));
  exec.Run();
  double err = std::abs(static_cast<double>(total) - static_cast<double>(p.paper_latency)) /
               static_cast<double>(p.paper_latency);
  EXPECT_LT(err, 0.10) << p.platform << ": simulated " << total << " vs paper "
                       << p.paper_latency;
}

INSTANTIATE_TEST_SUITE_P(
    Table2, CoherenceCalibration,
    ::testing::Values(UrpcLatencyCase{"2x4-core Intel", 0, 1, 180},
                      UrpcLatencyCase{"2x4-core Intel", 0, 4, 570},
                      UrpcLatencyCase{"2x2-core AMD", 0, 1, 450},
                      UrpcLatencyCase{"2x2-core AMD", 0, 2, 532},
                      UrpcLatencyCase{"4x4-core AMD", 0, 1, 448},
                      UrpcLatencyCase{"4x4-core AMD", 0, 4, 545},
                      UrpcLatencyCase{"4x4-core AMD", 0, 12, 558},
                      UrpcLatencyCase{"8x4-core AMD", 0, 1, 538},
                      UrpcLatencyCase{"8x4-core AMD", 0, 4, 613},
                      UrpcLatencyCase{"8x4-core AMD", 0, 16, 618}));

}  // namespace
}  // namespace mk::hw
