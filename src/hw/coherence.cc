#include "hw/coherence.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <stdexcept>

#include "fault/fault.h"

namespace mk::hw {
namespace {

constexpr std::uint64_t Bit(int core) { return std::uint64_t{1} << core; }

// Allocation regions are striped per NUMA node so the home node can be
// recovered from the address alone.
constexpr Addr kNodeRegionBase = 0x1000'0000;
constexpr int kNodeRegionBits = 40;
constexpr Addr kNodeRegionSize = Addr{1} << kNodeRegionBits;

// The node whose region holds `addr` (at or above kNodeRegionBase), and the
// index of its line in that region.
std::pair<std::size_t, std::uint64_t> NodeAndLine(Addr addr) {
  const Addr offset = addr - kNodeRegionBase;
  return {offset >> kNodeRegionBits, (offset & (kNodeRegionSize - 1)) / sim::kCacheLineBytes};
}

}  // namespace

CoherentMemory::CoherentMemory(sim::Executor& exec, const PlatformSpec& spec,
                               const Topology& topo, PerfCounters& counters)
    : exec_(exec), spec_(spec), topo_(topo), counters_(counters),
      home_ctrl_(topo.num_packages()) {
  if (topo.num_cores() > 64) {
    throw std::invalid_argument("CoherentMemory supports at most 64 cores");
  }
  if (topo.num_packages() > kMaxNodes) {
    throw std::invalid_argument("CoherentMemory supports at most 8 NUMA nodes");
  }
  for (int n = 0; n < topo.num_packages(); ++n) {
    nodes_[n].cursor = kNodeRegionBase + static_cast<Addr>(n) * kNodeRegionSize;
  }
}

Addr CoherentMemory::AllocLines(int node, std::uint64_t lines) {
  if (node < 0 || node >= topo_.num_packages()) {
    throw std::invalid_argument("AllocLines: bad node");
  }
  Addr base = nodes_[node].cursor;
  nodes_[node].cursor += lines * sim::kCacheLineBytes;
  return base;
}

int CoherentMemory::CheckAllocated(Addr addr, std::uint64_t lines) const {
  if (addr >= kNodeRegionBase) {
    const auto [node, line] = NodeAndLine(addr);
    if (node < static_cast<std::size_t>(topo_.num_packages())) {
      const std::uint64_t end = NodeAndLine(nodes_[node].cursor).second;
      if (line <= end && lines <= end - line) {
        return static_cast<int>(node);
      }
    }
  }
  throw std::out_of_range("CoherentMemory: address was never allocated");
}

std::uint64_t CoherentMemory::CheckedLines(Addr addr, std::uint64_t bytes) const {
  const std::uint64_t lines = sim::LinesCovering(addr, bytes);
  if (lines > 0) {
    CheckAllocated(addr, lines);
  }
  return lines;
}

void CoherentMemory::FreeLines(Addr base, std::uint64_t lines) {
  if (lines == 0) {
    return;
  }
  Node& node = nodes_[CheckAllocated(base, lines)];
  const std::uint64_t first = NodeAndLine(base).second;
  const std::uint64_t end = first + lines;
  for (std::uint64_t line = first; line < end;) {
    const std::uint64_t leaf_index = line / kLeafLines;
    if (leaf_index >= node.leaves.size() || node.leaves[leaf_index] == nullptr) {
      line = (leaf_index + 1) * kLeafLines;
      continue;
    }
    Leaf& leaf = *node.leaves[leaf_index];
    std::uint32_t& id = leaf.group[line / kGroupLines % kLeafGroups];
    // The freed slots of this group are [from, to).
    const std::uint64_t from = line % kGroupLines;
    const std::uint64_t to = std::min(end - line + from, kGroupLines);
    line += to - from;
    if (id == 0) {
      continue;
    }
    Group& g = GroupAt(id);
    bool others_live = false;
    for (std::uint64_t s = 0; s < kGroupLines; ++s) {
      if (g.sharers[s] == 0) {
        continue;
      }
      if (s >= from && s < to) {
        --live_lines_;
      } else {
        others_live = true;
      }
    }
    if (!others_live) {
      // NewGroup and BusyUntil reset the group and its block when they hand
      // them out again.
      if (g.busy != 0) {
        free_busy_.push_back(g.busy);
      }
      free_groups_.push_back(id);
      id = 0;
      if (--leaf.live == 0) {
        node.leaves[leaf_index].reset();
      }
      continue;
    }
    for (std::uint64_t s = from; s < to; ++s) {
      g.sharers[s] = 0;
      g.owner[s] = -1;
      if (g.busy != 0) {
        busy_blocks_[g.busy - 1][s] = 0;
      }
    }
  }
}

int CoherentMemory::HomeNode(Addr addr) const { return CheckAllocated(addr, 1); }

std::uint32_t CoherentMemory::NewGroup() {
  if (free_groups_.empty()) {
    if (groups_made_ / kChunkGroups == group_chunks_.size()) {
      group_chunks_.push_back(std::make_unique_for_overwrite<Group[]>(kChunkGroups));
    }
    free_groups_.push_back(groups_made_++);
  }
  const std::uint32_t id = free_groups_.back();
  free_groups_.pop_back();
  Group& g = GroupAt(id);
  std::fill(std::begin(g.sharers), std::end(g.sharers), 0);
  std::fill(std::begin(g.owner), std::end(g.owner), -1);
  g.busy = 0;
  return id;
}

CoherentMemory::LineRef CoherentMemory::LineAt(Addr line_addr) {
  const auto [home, line] = NodeAndLine(line_addr);
  std::vector<std::unique_ptr<Leaf>>& leaves = nodes_[home].leaves;
  const std::uint64_t leaf_index = line / kLeafLines;
  if (leaf_index >= leaves.size()) {
    leaves.resize(leaf_index + 1);
  }
  std::unique_ptr<Leaf>& leaf = leaves[leaf_index];
  if (leaf == nullptr) {
    leaf = std::make_unique<Leaf>();
  }
  std::uint32_t& id = leaf->group[line / kGroupLines % kLeafGroups];
  if (id == 0) {
    id = NewGroup();
    ++leaf->live;
  }
  return {GroupAt(id), line % kGroupLines, static_cast<int>(home)};
}

std::pair<std::uint64_t, int> CoherentMemory::StateOf(Addr addr) const {
  constexpr std::pair<std::uint64_t, int> kNeverCached{0, -1};
  if (addr < kNodeRegionBase) {
    return kNeverCached;
  }
  const auto [home, line] = NodeAndLine(addr);
  if (home >= static_cast<std::size_t>(topo_.num_packages())) {
    return kNeverCached;
  }
  const std::vector<std::unique_ptr<Leaf>>& leaves = nodes_[home].leaves;
  const std::uint64_t leaf_index = line / kLeafLines;
  if (leaf_index >= leaves.size() || leaves[leaf_index] == nullptr) {
    return kNeverCached;
  }
  const std::uint32_t id = leaves[leaf_index]->group[line / kGroupLines % kLeafGroups];
  if (id == 0) {
    return kNeverCached;
  }
  const Group& g = group_chunks_[id / kChunkGroups][id % kChunkGroups];
  return {g.sharers[line % kGroupLines], g.owner[line % kGroupLines]};
}

Cycles& CoherentMemory::BusyUntil(LineRef line) {
  std::uint32_t& block = line.group.busy;
  if (block == 0) {
    if (free_busy_.empty()) {
      busy_blocks_.emplace_back();
      free_busy_.push_back(static_cast<std::uint32_t>(busy_blocks_.size()));
    }
    block = free_busy_.back();
    free_busy_.pop_back();
    busy_blocks_[block - 1].fill(0);
  }
  return busy_blocks_[block - 1][line.slot];
}

bool CoherentMemory::HasLine(int core, Addr addr) const {
  return (StateOf(addr).first & Bit(core)) != 0;
}

int CoherentMemory::OwnerOf(Addr addr) const { return StateOf(addr).second; }

std::uint64_t CoherentMemory::SharersOf(Addr addr) const { return StateOf(addr).first; }

Cycles CoherentMemory::TransferLatency(int core, int src_core, int home) const {
  const CostBook& c = spec_.cost;
  // An installed fault::Injector can spike the interconnect: every transfer
  // that leaves the local package pays the extra latency while the spike is
  // armed.
  auto link_extra = [&](int hops) -> Cycles {
    if (hops <= 0) {
      return 0;
    }
    fault::Injector* inj = fault::Injector::active();
    if (inj == nullptr) {
      return 0;
    }
    Cycles extra = inj->LinkExtra(exec_.now());
    if (extra > 0) {
      trace::Emit<trace::Category::kFault>(trace::EventId::kFaultLinkSpike, exec_.now(),
                                           core, extra);
    }
    return extra;
  };
  if (src_core >= 0) {
    if (topo_.SharesCache(core, src_core)) {
      return c.shared_cache_rt;
    }
    int hops = topo_.HopsBetweenCores(core, src_core);
    return c.cross_rt_base + c.cross_rt_per_hop * static_cast<Cycles>(hops) +
           link_extra(hops);
  }
  int hops = topo_.Hops(topo_.PackageOf(core), home);
  return c.dram_base + c.dram_per_hop * static_cast<Cycles>(hops) + link_extra(hops);
}

Cycles CoherentMemory::ContentionDelay(LineRef line, int core, int src_core, bool is_write) {
  const CostBook& c = spec_.cost;
  const Cycles now = exec_.now();
  Cycles wait = 0;
  auto reserve = [&](sim::FifoResource& r, Cycles service) {
    Cycles done = r.ReserveAt(now, service);
    Cycles w = done - now - service;  // pure queueing, service is in the latency
    if (w > wait) {
      wait = w;
    }
  };
  const bool cross_c2c =
      src_core >= 0 && src_core != core && !topo_.SharesCache(core, src_core);
  if (cross_c2c && !is_write) {
    // Read supply of a hot line: one owner's cache serves every requester,
    // one at a time (the Figure 6 broadcast pathology). Ownership-migrating
    // writes instead pipeline through successive owners' caches, so their
    // serialization point is the home-node ordering below.
    Cycles& busy_until = BusyUntil(line);
    const Cycles start = busy_until > now ? busy_until : now;
    busy_until = start + c.c2c_occupancy;
    wait = start - now;  // the transaction's first reservation
  }
  if (is_write || src_core < 0) {
    // Writes order at the home node; memory fetches occupy its controller.
    reserve(home_ctrl_[line.home], c.home_occupancy);
  }
  if (spec_.interconnect == InterconnectKind::kFrontSideBus && c.bus_occupancy > 0) {
    const bool crosses_bus =
        cross_c2c || (src_core < 0 && topo_.PackageOf(core) != line.home) || is_write;
    if (crosses_bus) {
      reserve(bus_, c.bus_occupancy);
    }
  }
  return wait;
}

void CoherentMemory::AddPathDwords(int from_pkg, int to_pkg, std::uint64_t dwords) {
  while (from_pkg != to_pkg) {
    int next = topo_.NextHop(from_pkg, to_pkg);
    counters_.AddLinkDwords(from_pkg, next, dwords);
    from_pkg = next;
  }
}

void CoherentMemory::AccountTraffic(int core, int src_core, int home, bool data_from_memory) {
  const CostBook& c = spec_.cost;
  const int req_pkg = topo_.PackageOf(core);
  // Request command to the home node.
  AddPathDwords(req_pkg, home, c.cmd_dwords);
  if (spec_.interconnect == InterconnectKind::kHyperTransport) {
    // HT broadcasts probes to every node; each responds.
    for (int p = 0; p < topo_.num_packages(); ++p) {
      if (p == req_pkg) {
        continue;
      }
      AddPathDwords(home, p, c.cmd_dwords);
      AddPathDwords(p, req_pkg, c.cmd_dwords);
    }
  } else if (src_core >= 0) {
    // Snoop filter: probe only the package actually holding the line.
    int p = topo_.PackageOf(src_core);
    if (p != req_pkg) {
      AddPathDwords(home, p, c.cmd_dwords);
      AddPathDwords(p, req_pkg, c.cmd_dwords);
    }
  }
  // Data payload from its source to the requester.
  int data_pkg = data_from_memory ? home : topo_.PackageOf(src_core);
  AddPathDwords(data_pkg, req_pkg, c.data_dwords);
}

Cycles CoherentMemory::ReadLine(int core, Addr line_addr, bool prefetched) {
  const CostBook& c = spec_.cost;
  const LineRef line = LineAt(line_addr);
  std::uint64_t& sharers = line.group.sharers[line.slot];
  const int owner = line.group.owner[line.slot];
  CoreCounters& cc = counters_.core(core);
  ++cc.loads;
  if ((sharers & Bit(core)) != 0) {
    ++cc.cache_hits;
    return c.l1_hit;
  }
  ++cc.cache_misses;
  int src = -1;
  if (owner >= 0 && owner != core) {
    src = owner;
  } else if (sharers != 0) {
    // Clean copy supplied by the nearest sharer; ties go to the lowest core.
    int best = -1;
    int best_hops = 1 << 20;
    for (std::uint64_t rest = sharers; rest != 0; rest &= rest - 1) {
      const int s = std::countr_zero(rest);
      int h = topo_.SharesCache(core, s) ? -1 : topo_.HopsBetweenCores(core, s);
      if (h < best_hops) {
        best_hops = h;
        best = s;
      }
    }
    src = best;
  }
  const bool from_memory = src < 0;
  if (from_memory) {
    ++cc.dram_fetches;
  } else {
    ++cc.c2c_transfers;
  }
  Cycles lat = prefetched ? c.prefetched_read : TransferLatency(core, src, line.home);
  lat += ContentionDelay(line, core, src, /*is_write=*/false);
  AccountTraffic(core, src, line.home, from_memory);
  if (sharers == 0) {
    ++live_lines_;
  }
  sharers |= Bit(core);
  trace::Emit<trace::Category::kCoherence>(trace::EventId::kCohMiss, exec_.now(), core,
                                           line_addr, lat);
  if (!from_memory) {
    trace::Emit<trace::Category::kCoherence>(trace::EventId::kCohC2C, exec_.now(), core,
                                             line_addr, static_cast<std::uint64_t>(src));
  }
  return lat;
}

Cycles CoherentMemory::WriteLine(int core, Addr line_addr) {
  const CostBook& c = spec_.cost;
  const LineRef line = LineAt(line_addr);
  std::uint64_t& sharers = line.group.sharers[line.slot];
  std::int8_t& owner = line.group.owner[line.slot];
  CoreCounters& cc = counters_.core(core);
  ++cc.stores;
  if (owner == core && sharers == Bit(core)) {
    ++cc.cache_hits;
    return c.l1_hit;
  }
  ++cc.cache_misses;
  const bool need_data = (sharers & Bit(core)) == 0;
  int src = -1;
  if (need_data) {
    if (owner >= 0 && owner != core) {
      src = owner;
    } else if (sharers != 0) {
      src = std::countr_zero(sharers);  // the lowest sharer; `core` is not one
    }
  }
  const bool from_memory = need_data && src < 0;
  Cycles fetch_lat = 0;
  if (need_data) {
    fetch_lat = TransferLatency(core, src, line.home);
    if (from_memory) {
      ++cc.dram_fetches;
    } else {
      ++cc.c2c_transfers;
    }
  }
  // Invalidate every other copy; probes go out in parallel, so the protocol
  // latency is bounded by the farthest sharer — plus, on a broadcast-probe
  // interconnect, a serial component for collecting the probe responses of a
  // widely-shared line at the ordering point.
  Cycles inval_lat = 0;
  int other_sharers = 0;
  for (std::uint64_t rest = sharers & ~Bit(core); rest != 0; rest &= rest - 1) {
    const int s = std::countr_zero(rest);
    ++other_sharers;
    ++counters_.core(s).invalidations_recv;
    Cycles rt = TransferLatency(core, s, line.home);
    if (rt > inval_lat) {
      inval_lat = rt;
    }
  }
  if (spec_.interconnect == InterconnectKind::kHyperTransport && other_sharers > 1) {
    inval_lat += 70 * static_cast<Cycles>(other_sharers - 1);
  }
  Cycles lat = fetch_lat > inval_lat ? fetch_lat : inval_lat;
  if (lat == 0) {
    // Upgrade of a solitary shared copy: half a round trip to the ordering
    // point.
    lat = c.cross_rt_base / 2;
  }
  lat += ContentionDelay(line, core, src, /*is_write=*/true);
  if (need_data || sharers != Bit(core) || owner != core) {
    AccountTraffic(core, src, line.home, from_memory);
  }
  if (sharers == 0) {
    ++live_lines_;
  }
  sharers = Bit(core);
  owner = static_cast<std::int8_t>(core);
  trace::Emit<trace::Category::kCoherence>(trace::EventId::kCohMiss, exec_.now(), core,
                                           line_addr, lat);
  if (need_data && !from_memory) {
    trace::Emit<trace::Category::kCoherence>(trace::EventId::kCohC2C, exec_.now(), core,
                                             line_addr, static_cast<std::uint64_t>(src));
  }
  return lat;
}

// Multi-line accesses process one line at a time: each line's state change,
// contention reservation, and latency happen at that line's issue time, so
// concurrent cores interleave between lines and a burst of lines does not
// self-queue at a single timestamp.
Task<Cycles> CoherentMemory::Read(int core, Addr addr, std::uint64_t bytes) {
  const std::uint64_t n = CheckedLines(addr, bytes);
  Cycles total = 0;
  Addr first = sim::LineBase(addr);
  for (std::uint64_t i = 0; i < n; ++i) {
    Cycles lat = ReadLine(core, first + i * sim::kCacheLineBytes, /*prefetched=*/false);
    total += lat;
    co_await exec_.Delay(lat);
  }
  co_return total;
}

Task<Cycles> CoherentMemory::ReadPrefetched(int core, Addr addr, std::uint64_t bytes) {
  const std::uint64_t n = CheckedLines(addr, bytes);
  Cycles total = 0;
  Addr first = sim::LineBase(addr);
  for (std::uint64_t i = 0; i < n; ++i) {
    Cycles lat = ReadLine(core, first + i * sim::kCacheLineBytes, /*prefetched=*/true);
    total += lat;
    co_await exec_.Delay(lat);
  }
  co_return total;
}

Task<Cycles> CoherentMemory::Write(int core, Addr addr, std::uint64_t bytes) {
  const std::uint64_t n = CheckedLines(addr, bytes);
  Cycles total = 0;
  Addr first = sim::LineBase(addr);
  for (std::uint64_t i = 0; i < n; ++i) {
    Cycles lat = WriteLine(core, first + i * sim::kCacheLineBytes);
    total += lat;
    co_await exec_.Delay(lat);
  }
  co_return total;
}

Task<Cycles> CoherentMemory::WritePosted(int core, Addr addr, std::uint64_t bytes) {
  // State, traffic and contention are accounted as for a blocking write, but
  // the issuing core only pays the store-buffer retire cost per line.
  const std::uint64_t n = CheckedLines(addr, bytes);
  Addr first = sim::LineBase(addr);
  Cycles total = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    (void)WriteLine(core, first + i * sim::kCacheLineBytes);
    total += spec_.cost.store_posted;
    co_await exec_.Delay(spec_.cost.store_posted);
  }
  co_return total;
}

}  // namespace mk::hw
