// Interconnect topology: core placement and package-to-package routing.
#ifndef MK_HW_TOPOLOGY_H_
#define MK_HW_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "hw/platform.h"

namespace mk::hw {

// Immutable description of the machine shape, derived from a PlatformSpec.
// Cores are numbered package-major: core c lives in package c / cores_per_pkg.
class Topology {
 public:
  explicit Topology(const PlatformSpec& spec);

  int num_cores() const { return num_cores_; }
  int num_packages() const { return packages_; }
  int cores_per_package() const { return cores_per_package_; }

  int PackageOf(int core) const { return core / cores_per_package_; }
  int DieOf(int core) const {
    return (core % cores_per_package_) / cores_per_die_;
  }

  // True if the two cores communicate through a shared cache (or an on-die
  // path) rather than across the interconnect.
  bool SharesCache(int a, int b) const;

  // Interconnect hops between two packages (0 for the same package). On the
  // front-side bus every cross-package pair is one "hop" (one bus transfer).
  int Hops(int pkg_a, int pkg_b) const { return hops_[pkg_a][pkg_b]; }
  int HopsBetweenCores(int a, int b) const { return Hops(PackageOf(a), PackageOf(b)); }

  // Longest shortest-path distance between any two packages.
  int Diameter() const { return diameter_; }

  // First package on a shortest path from `from` towards `to` (== `to` if
  // adjacent or equal). Used to route traffic accounting over links.
  int NextHop(int from, int to) const { return next_hop_[from][to]; }

  // All directed links (a, b) with a != b that are direct neighbors.
  const std::vector<std::pair<int, int>>& links() const { return links_; }

  // First core of each package, in package order (multicast aggregation).
  std::vector<int> PackageLeaders() const;
  // Cores belonging to `pkg`.
  std::vector<int> CoresOf(int pkg) const;

 private:
  int packages_;
  int cores_per_package_;
  int cores_per_die_;
  int num_cores_;
  bool shared_cache_per_die_;
  bool shared_cache_per_package_;
  std::vector<std::pair<int, int>> links_;
  std::vector<std::vector<int>> hops_;
  std::vector<std::vector<int>> next_hop_;
  int diameter_ = 0;
};

}  // namespace mk::hw

#endif  // MK_HW_TOPOLOGY_H_
