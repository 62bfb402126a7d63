// System knowledge base (section 4.9).
//
// A declarative repository of hardware facts populated from three sources:
//   1. hardware discovery (the topology: packages, cores, links, NUMA nodes),
//   2. online measurement (URPC latency between core pairs, measured by
//      running probes over the simulated machine at boot),
//   3. pre-asserted facts (quirks and board data that cannot be discovered).
//
// Queries over this repository drive policy: the per-source NUMA-aware
// multicast routes that the monitors' one- and two-phase-commit collectives
// (TLB shootdown, capability retype) send along (section 5.1).
#ifndef MK_SKB_SKB_H_
#define MK_SKB_SKB_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hw/machine.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::skb {

using sim::Cycles;
using sim::Task;

// A stored fact: a relation name and a tuple of integer arguments.
// (The real SKB runs a port of the ECLiPSe CLP system; a typed tuple store
// with pattern queries covers everything Barrelfish's policies in this paper
// derive from it.)
struct Fact {
  std::string relation;
  std::vector<std::int64_t> args;
};

class FactStore {
 public:
  void Assert(const std::string& relation, std::vector<std::int64_t> args);

  // Pattern query: `pattern` entries match positionally; kWildcard matches
  // anything. Returns all matching tuples.
  static constexpr std::int64_t kWildcard = INT64_MIN;
  std::vector<std::vector<std::int64_t>> Query(const std::string& relation,
                                               const std::vector<std::int64_t>& pattern) const;
  // All tuples of a relation.
  std::vector<std::vector<std::int64_t>> All(const std::string& relation) const;

  // Removes matching tuples; returns how many were removed.
  std::size_t Retract(const std::string& relation, const std::vector<std::int64_t>& pattern);

  std::size_t size() const;

 private:
  std::map<std::string, std::vector<std::vector<std::int64_t>>> relations_;
};

// A multicast route for one source core: an ordered list of aggregation
// nodes, one per package, each a leader core with its local member cores.
// The order is the send order (NUMA-aware routes send to the highest-latency
// subtree first). The source's own package appears with the source itself as
// leader, so its local members are reached directly over the shared cache.
struct MulticastRoute {
  int source = 0;
  struct Node {
    int leader = 0;                // first core contacted in the package
    std::vector<int> members;      // other cores there (the leader fans out)
    int package = 0;
    Cycles est_latency = 0;        // measured/estimated source->leader latency
  };
  std::vector<Node> nodes;
};

class Skb {
 public:
  explicit Skb(hw::Machine& machine);

  FactStore& facts() { return facts_; }
  const FactStore& facts() const { return facts_; }

  // Populates topology facts from hardware discovery: core(core, package),
  // package(pkg), link(a, b), numa_region(pkg), shares_cache(a, b).
  void PopulateFromHardware();

  // Online measurement: runs URPC probe transactions between representative
  // core pairs and asserts urpc_latency(core_a, core_b, cycles) facts.
  // (Measures one pair per package pair plus one shared-cache pair.)
  Task<> MeasureUrpcLatencies();

  // Measured (or estimated, if not measured) one-message latency from a to b.
  Cycles UrpcLatency(int a, int b) const;

  // Builds the multicast route for `source`: one aggregation node per
  // package; if `numa_aware`, nodes are ordered by decreasing latency and the
  // route records each node's package for local buffer allocation.
  MulticastRoute BuildMulticastRoute(int source, bool numa_aware) const;

 private:
  hw::Machine& machine_;
  FactStore facts_;
};

}  // namespace mk::skb

#endif  // MK_SKB_SKB_H_
