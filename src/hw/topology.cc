#include "hw/topology.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace mk::hw {

Topology::Topology(const PlatformSpec& spec)
    : packages_(spec.packages),
      cores_per_package_(spec.cores_per_package()),
      cores_per_die_(spec.cores_per_die),
      num_cores_(spec.num_cores()),
      shared_cache_per_die_(spec.shared_cache_per_die),
      shared_cache_per_package_(spec.shared_cache_per_package) {
  // Build the directed adjacency from the spec's undirected link list; an
  // empty list means fully connected.
  std::vector<std::vector<int>> adj(packages_);
  auto add_link = [&](int a, int b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
    links_.emplace_back(a, b);
    links_.emplace_back(b, a);
  };
  if (spec.links.empty()) {
    for (int a = 0; a < packages_; ++a) {
      for (int b = a + 1; b < packages_; ++b) {
        add_link(a, b);
      }
    }
  } else {
    for (auto [a, b] : spec.links) {
      if (a < 0 || b < 0 || a >= packages_ || b >= packages_ || a == b) {
        throw std::invalid_argument("bad link in platform spec");
      }
      add_link(a, b);
    }
  }

  // All-pairs BFS for hop counts and next-hop routing.
  hops_.assign(packages_, std::vector<int>(packages_, -1));
  next_hop_.assign(packages_, std::vector<int>(packages_, -1));
  for (int src = 0; src < packages_; ++src) {
    hops_[src][src] = 0;
    next_hop_[src][src] = src;
    std::deque<int> frontier{src};
    std::vector<int> parent(packages_, -1);
    while (!frontier.empty()) {
      int u = frontier.front();
      frontier.pop_front();
      for (int v : adj[u]) {
        if (hops_[src][v] == -1) {
          hops_[src][v] = hops_[src][u] + 1;
          parent[v] = u;
          frontier.push_back(v);
        }
      }
    }
    for (int dst = 0; dst < packages_; ++dst) {
      if (hops_[src][dst] < 0) {
        throw std::invalid_argument("disconnected interconnect topology");
      }
      // Walk back from dst to the neighbor of src.
      int v = dst;
      while (v != src && parent[v] != src) {
        v = parent[v];
      }
      next_hop_[src][dst] = v;
    }
  }

  for (int p = 0; p < packages_; ++p) {
    diameter_ = std::max(diameter_, *std::max_element(hops_[p].begin(), hops_[p].end()));
  }
}

bool Topology::SharesCache(int a, int b) const {
  if (a == b) {
    return true;
  }
  if (PackageOf(a) != PackageOf(b)) {
    return false;
  }
  if (shared_cache_per_package_) {
    return true;
  }
  return shared_cache_per_die_ && DieOf(a) == DieOf(b);
}

std::vector<int> Topology::PackageLeaders() const {
  std::vector<int> leaders;
  leaders.reserve(packages_);
  for (int p = 0; p < packages_; ++p) {
    leaders.push_back(p * cores_per_package_);
  }
  return leaders;
}

std::vector<int> Topology::CoresOf(int pkg) const {
  std::vector<int> cores;
  cores.reserve(cores_per_package_);
  for (int i = 0; i < cores_per_package_; ++i) {
    cores.push_back(pkg * cores_per_package_ + i);
  }
  return cores;
}

}  // namespace mk::hw
