// Tests for the system knowledge base: fact store, discovery, measurement,
// and route construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hw/machine.h"
#include "hw/platform.h"
#include "sim/executor.h"
#include "skb/skb.h"

namespace mk::skb {
namespace {

using sim::Task;

TEST(FactStore, AssertQueryRetract) {
  FactStore fs;
  fs.Assert("core", {0, 0});
  fs.Assert("core", {1, 0});
  fs.Assert("core", {4, 1});
  EXPECT_EQ(fs.size(), 3u);
  auto in_pkg0 = fs.Query("core", {FactStore::kWildcard, 0});
  EXPECT_EQ(in_pkg0.size(), 2u);
  auto exact = fs.Query("core", {4, 1});
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0][0], 4);
  EXPECT_TRUE(fs.Query("nothing", {FactStore::kWildcard}).empty());
  EXPECT_EQ(fs.Retract("core", {FactStore::kWildcard, 0}), 2u);
  EXPECT_EQ(fs.size(), 1u);
}

TEST(FactStore, ArityMismatchNeverMatches) {
  FactStore fs;
  fs.Assert("link", {0, 1});
  EXPECT_TRUE(fs.Query("link", {0}).empty());
  EXPECT_TRUE(fs.Query("link", {0, 1, 2}).empty());
}

struct SkbFixture {
  SkbFixture() : machine(exec, hw::Amd8x4()), skb(machine) {
    skb.PopulateFromHardware();
  }
  sim::Executor exec;
  hw::Machine machine;
  Skb skb;
};

using Tuples = std::vector<std::vector<std::int64_t>>;

Tuples Sorted(Tuples tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

TEST(Skb, DiscoveryPopulatesTopologyFacts) {
  for (const hw::PlatformSpec& spec : hw::PaperPlatforms()) {
    SCOPED_TRACE(spec.name);
    sim::Executor exec;
    hw::Machine machine(exec, spec);
    Skb skb(machine);
    skb.PopulateFromHardware();
    const hw::Topology& topo = machine.topo();
    const FactStore& facts = skb.facts();

    EXPECT_EQ(facts.All("core").size(), static_cast<std::size_t>(spec.num_cores()));
    EXPECT_EQ(facts.All("core_speed_milli").size(), static_cast<std::size_t>(spec.num_cores()));
    EXPECT_EQ(facts.Query("core_speed_milli", {0, 1000}).size(), 1u);
    EXPECT_EQ(facts.All("package").size(), static_cast<std::size_t>(spec.packages));

    // Every directed interconnect link, each exactly once.
    Tuples links;
    for (auto [a, b] : topo.links()) {
      links.push_back({a, b});
    }
    EXPECT_EQ(Sorted(facts.All("link")), Sorted(links));

    // shares_cache holds exactly the pairs behind one shared cache: a package
    // on the AMDs (8 * C(4,2) = 48 pairs on the 8x4), a die on the Intel.
    Tuples shared;
    for (int a = 0; a < spec.num_cores(); ++a) {
      for (int b = a + 1; b < spec.num_cores(); ++b) {
        if (topo.PackageOf(a) == topo.PackageOf(b) &&
            (spec.shared_cache_per_package || topo.DieOf(a) == topo.DieOf(b))) {
          shared.push_back({a, b});
        }
      }
    }
    EXPECT_EQ(Sorted(facts.All("shares_cache")), shared);
  }
}

TEST(Skb, OnlineMeasurementAssertsLatencyFacts) {
  SkbFixture f;
  f.exec.Spawn(f.skb.MeasureUrpcLatencies());
  f.exec.Run();
  auto measured = f.skb.facts().All("urpc_latency");
  // One per ordered package pair (56) + one shared pair per package (8).
  EXPECT_EQ(measured.size(), 64u);
  // A shared-cache pair must measure cheaper than a cross-package pair.
  EXPECT_LT(f.skb.UrpcLatency(0, 1), f.skb.UrpcLatency(0, 4));
  // The measured value is close to the paper's Table 2 (shared: 538).
  EXPECT_NEAR(static_cast<double>(f.skb.UrpcLatency(0, 1)), 538.0, 538.0 * 0.15);
}

TEST(Skb, LatencyFallsBackToEstimateWithoutMeasurement) {
  SkbFixture f;
  // No measurement run: estimates from the cost book.
  EXPECT_GT(f.skb.UrpcLatency(0, 4), 0u);
  EXPECT_EQ(f.skb.UrpcLatency(3, 3), 0u);
  EXPECT_LT(f.skb.UrpcLatency(0, 1), f.skb.UrpcLatency(0, 28));
}

TEST(Skb, MulticastRouteCoversAllCoresOncePerPackage) {
  SkbFixture f;
  MulticastRoute route = f.skb.BuildMulticastRoute(0, /*numa_aware=*/false);
  EXPECT_EQ(route.nodes.size(), 8u);
  std::vector<bool> seen(32, false);
  for (const auto& node : route.nodes) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(node.leader)]);
    seen[static_cast<std::size_t>(node.leader)] = true;
    for (int m : node.members) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(m)]);
      seen[static_cast<std::size_t>(m)] = true;
      // Members share a package with their leader.
      EXPECT_EQ(f.machine.topo().PackageOf(m), node.package);
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Skb, SourcePackageLeaderIsTheSourceItself) {
  SkbFixture f;
  MulticastRoute route = f.skb.BuildMulticastRoute(5, false);
  bool found = false;
  for (const auto& node : route.nodes) {
    if (node.package == f.machine.topo().PackageOf(5)) {
      EXPECT_EQ(node.leader, 5);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Skb, NumaAwareRouteOrdersByDecreasingLatency) {
  SkbFixture f;
  f.exec.Spawn(f.skb.MeasureUrpcLatencies());
  f.exec.Run();
  MulticastRoute route = f.skb.BuildMulticastRoute(0, /*numa_aware=*/true);
  for (std::size_t i = 1; i < route.nodes.size(); ++i) {
    EXPECT_GE(route.nodes[i - 1].est_latency, route.nodes[i].est_latency);
  }
  // The farthest package goes first and the source's own package last.
  EXPECT_EQ(route.nodes.back().leader, 0);
}

}  // namespace
}  // namespace mk::skb
