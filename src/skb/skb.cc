#include "skb/skb.h"

#include <algorithm>

namespace mk::skb {

void FactStore::Assert(const std::string& relation, std::vector<std::int64_t> args) {
  relations_[relation].push_back(std::move(args));
}

std::vector<std::vector<std::int64_t>> FactStore::Query(
    const std::string& relation, const std::vector<std::int64_t>& pattern) const {
  std::vector<std::vector<std::int64_t>> out;
  auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return out;
  }
  for (const auto& tuple : it->second) {
    if (tuple.size() != pattern.size()) {
      continue;
    }
    bool match = true;
    for (std::size_t i = 0; i < tuple.size(); ++i) {
      if (pattern[i] != kWildcard && pattern[i] != tuple[i]) {
        match = false;
        break;
      }
    }
    if (match) {
      out.push_back(tuple);
    }
  }
  return out;
}

std::vector<std::vector<std::int64_t>> FactStore::All(const std::string& relation) const {
  auto it = relations_.find(relation);
  return it == relations_.end() ? std::vector<std::vector<std::int64_t>>{} : it->second;
}

std::size_t FactStore::Retract(const std::string& relation,
                               const std::vector<std::int64_t>& pattern) {
  auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return 0;
  }
  std::size_t before = it->second.size();
  it->second.erase(
      std::remove_if(it->second.begin(), it->second.end(),
                     [&](const std::vector<std::int64_t>& tuple) {
                       if (tuple.size() != pattern.size()) {
                         return false;
                       }
                       for (std::size_t i = 0; i < tuple.size(); ++i) {
                         if (pattern[i] != kWildcard && pattern[i] != tuple[i]) {
                           return false;
                         }
                       }
                       return true;
                     }),
      it->second.end());
  return before - it->second.size();
}

std::size_t FactStore::size() const {
  std::size_t n = 0;
  for (const auto& [name, tuples] : relations_) {
    n += tuples.size();
  }
  return n;
}

Skb::Skb(hw::Machine& machine) : machine_(machine) {}

void Skb::PopulateFromHardware() {
  const hw::Topology& topo = machine_.topo();
  for (int p = 0; p < topo.num_packages(); ++p) {
    facts_.Assert("package", {p});
    facts_.Assert("numa_region", {p});
  }
  for (int c = 0; c < topo.num_cores(); ++c) {
    facts_.Assert("core", {c, topo.PackageOf(c)});
    facts_.Assert("core_speed_milli",
                  {c, static_cast<std::int64_t>(machine_.spec().SpeedOf(c) * 1000)});
  }
  for (auto [a, b] : topo.links()) {
    facts_.Assert("link", {a, b});
  }
  for (int a = 0; a < topo.num_cores(); ++a) {
    for (int b = a + 1; b < topo.num_cores(); ++b) {
      if (topo.SharesCache(a, b)) {
        facts_.Assert("shares_cache", {a, b});
      }
    }
  }
}

Task<> Skb::MeasureUrpcLatencies() {
  const hw::Topology& topo = machine_.topo();
  hw::CoherentMemory& mem = machine_.mem();
  // One representative pair per ordered package pair, plus a shared-cache
  // pair inside each package. The probe replays the URPC fast path: receiver
  // primes the line, sender writes (invalidate), receiver fetches.
  auto probe = [&](int a, int b) -> Task<Cycles> {
    hw::LineRegion line(mem, topo.PackageOf(a), 1);
    co_await mem.Read(b, line.base());
    Cycles lat = co_await mem.Write(a, line.base());
    lat += co_await mem.Read(b, line.base());
    co_return lat;
  };
  for (int pa = 0; pa < topo.num_packages(); ++pa) {
    for (int pb = 0; pb < topo.num_packages(); ++pb) {
      int a = pa * topo.cores_per_package();
      int b = pb * topo.cores_per_package();
      if (pa == pb) {
        if (topo.cores_per_package() < 2) {
          continue;
        }
        b = a + 1;  // shared-cache pair
      }
      Cycles lat = co_await probe(a, b);
      facts_.Assert("urpc_latency", {a, b, static_cast<std::int64_t>(lat)});
    }
  }
}

Cycles Skb::UrpcLatency(int a, int b) const {
  const hw::Topology& topo = machine_.topo();
  if (a == b) {
    return 0;
  }
  auto exact = facts_.Query("urpc_latency", {a, b, FactStore::kWildcard});
  if (!exact.empty()) {
    return static_cast<Cycles>(exact.front()[2]);
  }
  // Representative pair for the same package relationship.
  int ra = topo.PackageOf(a) * topo.cores_per_package();
  int rb = topo.PackageOf(b) * topo.cores_per_package();
  if (topo.PackageOf(a) == topo.PackageOf(b)) {
    rb = ra + 1;
  }
  auto rep = facts_.Query("urpc_latency", {ra, rb, FactStore::kWildcard});
  if (!rep.empty()) {
    return static_cast<Cycles>(rep.front()[2]);
  }
  // Fall back to a cost-book estimate.
  const hw::CostBook& c = machine_.cost();
  if (topo.SharesCache(a, b)) {
    return 2 * c.shared_cache_rt;
  }
  return 2 * (c.cross_rt_base +
              c.cross_rt_per_hop * static_cast<Cycles>(topo.HopsBetweenCores(a, b)));
}

MulticastRoute Skb::BuildMulticastRoute(int source, bool numa_aware) const {
  const hw::Topology& topo = machine_.topo();
  MulticastRoute route;
  route.source = source;
  int src_pkg = topo.PackageOf(source);
  for (int p = 0; p < topo.num_packages(); ++p) {
    MulticastRoute::Node node;
    node.package = p;
    node.leader = p == src_pkg ? source : p * topo.cores_per_package();
    for (int c : topo.CoresOf(p)) {
      if (c != node.leader) {
        node.members.push_back(c);
      }
    }
    node.est_latency = UrpcLatency(source, node.leader);
    route.nodes.push_back(std::move(node));
  }
  if (numa_aware) {
    // Send to the highest-latency aggregation node first so the slowest
    // subtree's work overlaps the remaining sends.
    std::stable_sort(route.nodes.begin(), route.nodes.end(),
                     [](const auto& x, const auto& y) {
                       return x.est_latency > y.est_latency;
                     });
  }
  return route;
}

}  // namespace mk::skb
