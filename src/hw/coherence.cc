#include "hw/coherence.h"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "fault/fault.h"

namespace mk::hw {
namespace {

constexpr std::uint64_t Bit(int core) { return std::uint64_t{1} << core; }

// Allocation regions are striped per NUMA node so the home node can be
// recovered from the address alone.
constexpr Addr kNodeRegionBase = 0x1000'0000;
constexpr Addr kNodeRegionSize = Addr{1} << 40;

// Line directory: slot keys are line-aligned, so an unaligned key marks an
// empty slot. A table starts at 64 slots (eight groups of eight lines).
constexpr Addr kEmptyKey = ~Addr{0};
constexpr std::size_t kGroupLines = 8;
constexpr std::size_t kMinSlots = 64;
// Fibonacci hashing of the group number: consecutive groups, and the same
// offset in different nodes' regions, spread over the whole table.
constexpr std::uint64_t kGroupMul = 0x9E37'79B9'7F4A'7C15;

}  // namespace

template <typename V>
std::size_t CoherentMemory::LineTable<V>::Home(Addr line_addr) const {
  const Addr line = line_addr / sim::kCacheLineBytes;
  const std::size_t group = static_cast<std::size_t>(((line / kGroupLines) * kGroupMul) >>
                                                     group_shift_);
  return group * kGroupLines + static_cast<std::size_t>(line % kGroupLines);
}

template <typename V>
std::size_t CoherentMemory::LineTable<V>::Probe(Addr line_addr) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = Home(line_addr);
  while (slots_[i].key != line_addr && slots_[i].key != kEmptyKey) {
    i = (i + 1) & mask;
  }
  return i;
}

template <typename V>
const V* CoherentMemory::LineTable<V>::Find(Addr line_addr) const {
  if (slots_.empty()) {
    return nullptr;
  }
  const Slot& s = slots_[Probe(line_addr)];
  return s.key == line_addr ? &s.value : nullptr;
}

template <typename V>
std::pair<V*, bool> CoherentMemory::LineTable<V>::FindOrInsert(Addr line_addr) {
  std::size_t i = 0;
  if (!slots_.empty()) {
    i = Probe(line_addr);
    if (slots_[i].key == line_addr) {
      return {&slots_[i].value, false};
    }
  }
  if (4 * (used_ + 1) > 3 * slots_.size()) {
    Grow();
    i = Probe(line_addr);
  }
  slots_[i].key = line_addr;
  ++used_;
  return {&slots_[i].value, true};
}

template <typename V>
void CoherentMemory::LineTable<V>::Erase(Addr line_addr) {
  if (slots_.empty()) {
    return;
  }
  std::size_t hole = Probe(line_addr);
  if (slots_[hole].key != line_addr) {
    return;
  }
  // Walk the rest of the probe run. An entry moves back into the hole when
  // its probe passes the hole on the way from its home slot; its own slot
  // becomes the next hole.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = (hole + 1) & mask; slots_[i].key != kEmptyKey; i = (i + 1) & mask) {
    if (((i - Home(slots_[i].key)) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  // FindOrInsert hands out an empty slot's value as value-initialized.
  slots_[hole] = Slot{kEmptyKey, V{}};
  --used_;
}

template <typename V>
void CoherentMemory::LineTable<V>::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t size = old.empty() ? kMinSlots : 2 * old.size();
  slots_.assign(size, Slot{kEmptyKey, V{}});
  group_shift_ = 64 - std::countr_zero(size / kGroupLines);
  for (const Slot& s : old) {
    if (s.key != kEmptyKey) {
      slots_[Probe(s.key)] = s;
    }
  }
}

CoherentMemory::CoherentMemory(sim::Executor& exec, const PlatformSpec& spec,
                               const Topology& topo, PerfCounters& counters)
    : exec_(exec), spec_(spec), topo_(topo), counters_(counters),
      home_ctrl_(topo.num_packages()) {
  if (topo.num_cores() > 64) {
    throw std::invalid_argument("CoherentMemory supports at most 64 cores");
  }
  node_cursor_.resize(topo.num_packages());
  for (int n = 0; n < topo.num_packages(); ++n) {
    node_cursor_[n] = kNodeRegionBase + static_cast<Addr>(n) * kNodeRegionSize;
  }
}

Addr CoherentMemory::AllocLines(int node, std::uint64_t lines) {
  if (node < 0 || node >= topo_.num_packages()) {
    throw std::invalid_argument("AllocLines: bad node");
  }
  Addr base = node_cursor_[node];
  node_cursor_[node] += lines * sim::kCacheLineBytes;
  return base;
}

void CoherentMemory::FreeLines(Addr base, std::uint64_t lines) {
  for (std::uint64_t i = 0; i < lines; ++i) {
    const Addr line_addr = base + i * sim::kCacheLineBytes;
    lines_.Erase(line_addr);
    c2c_busy_until_.Erase(line_addr);
  }
}

int CoherentMemory::HomeNode(Addr addr) const {
  if (addr < kNodeRegionBase) {
    return 0;
  }
  auto node = static_cast<int>((addr - kNodeRegionBase) / kNodeRegionSize);
  return node < topo_.num_packages() ? node : 0;
}

CoherentMemory::Line& CoherentMemory::LineAt(Addr line_addr) {
  auto [line, inserted] = lines_.FindOrInsert(line_addr);
  if (inserted) {
    line->home = HomeNode(line_addr);
  }
  return *line;
}

bool CoherentMemory::HasLine(int core, Addr addr) const {
  const Line* l = lines_.Find(sim::LineBase(addr));
  return l != nullptr && (l->sharers & Bit(core)) != 0;
}

int CoherentMemory::OwnerOf(Addr addr) const {
  const Line* l = lines_.Find(sim::LineBase(addr));
  return l ? l->owner : -1;
}

std::uint64_t CoherentMemory::SharersOf(Addr addr) const {
  const Line* l = lines_.Find(sim::LineBase(addr));
  return l ? l->sharers : 0;
}

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

Cycles CoherentMemory::ContentionDelay(Addr line_addr, int core, int src_core, int home,
                                       bool is_write) {
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
    Cycles& busy_until = *c2c_busy_until_.FindOrInsert(line_addr).first;
    const Cycles start = busy_until > now ? busy_until : now;
    busy_until = start + c.c2c_occupancy;
    wait = start - now;  // the transaction's first reservation
  }
  if (is_write || src_core < 0) {
    // Writes order at the home node; memory fetches occupy its controller.
    reserve(home_ctrl_[home], c.home_occupancy);
  }
  if (spec_.interconnect == InterconnectKind::kFrontSideBus && c.bus_occupancy > 0) {
    const bool crosses_bus =
        cross_c2c || (src_core < 0 && topo_.PackageOf(core) != home) || is_write;
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
  Line& l = LineAt(line_addr);
  CoreCounters& cc = counters_.core(core);
  ++cc.loads;
  if ((l.sharers & Bit(core)) != 0) {
    ++cc.cache_hits;
    return c.l1_hit;
  }
  ++cc.cache_misses;
  int src = -1;
  if (l.owner >= 0 && l.owner != core) {
    src = l.owner;
  } else if (l.sharers != 0) {
    // Clean copy supplied by the nearest sharer; ties go to the lowest core.
    int best = -1;
    int best_hops = 1 << 20;
    for (std::uint64_t rest = l.sharers; rest != 0; rest &= rest - 1) {
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
  Cycles lat = prefetched ? c.prefetched_read : TransferLatency(core, src, l.home);
  lat += ContentionDelay(line_addr, core, src, l.home, /*is_write=*/false);
  AccountTraffic(core, src, l.home, from_memory);
  l.sharers |= Bit(core);
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
  Line& l = LineAt(line_addr);
  CoreCounters& cc = counters_.core(core);
  ++cc.stores;
  if (l.owner == core && l.sharers == Bit(core)) {
    ++cc.cache_hits;
    return c.l1_hit;
  }
  ++cc.cache_misses;
  const bool need_data = (l.sharers & Bit(core)) == 0;
  int src = -1;
  if (need_data) {
    if (l.owner >= 0 && l.owner != core) {
      src = l.owner;
    } else if (l.sharers != 0) {
      src = std::countr_zero(l.sharers);  // the lowest sharer; `core` is not one
    }
  }
  const bool from_memory = need_data && src < 0;
  Cycles fetch_lat = 0;
  if (need_data) {
    fetch_lat = TransferLatency(core, src, l.home);
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
  for (std::uint64_t rest = l.sharers & ~Bit(core); rest != 0; rest &= rest - 1) {
    const int s = std::countr_zero(rest);
    ++other_sharers;
    ++counters_.core(s).invalidations_recv;
    Cycles rt = TransferLatency(core, s, l.home);
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
  lat += ContentionDelay(line_addr, core, src, l.home, /*is_write=*/true);
  if (need_data || l.sharers != Bit(core) || l.owner != core) {
    AccountTraffic(core, src, l.home, from_memory);
  }
  l.sharers = Bit(core);
  l.owner = core;
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
  Cycles total = 0;
  Addr first = sim::LineBase(addr);
  for (std::uint64_t i = 0; i < sim::LinesCovering(addr, bytes); ++i) {
    Cycles lat = ReadLine(core, first + i * sim::kCacheLineBytes, /*prefetched=*/false);
    total += lat;
    co_await exec_.Delay(lat);
  }
  co_return total;
}

Task<Cycles> CoherentMemory::ReadPrefetched(int core, Addr addr, std::uint64_t bytes) {
  Cycles total = 0;
  Addr first = sim::LineBase(addr);
  for (std::uint64_t i = 0; i < sim::LinesCovering(addr, bytes); ++i) {
    Cycles lat = ReadLine(core, first + i * sim::kCacheLineBytes, /*prefetched=*/true);
    total += lat;
    co_await exec_.Delay(lat);
  }
  co_return total;
}

Task<Cycles> CoherentMemory::Write(int core, Addr addr, std::uint64_t bytes) {
  Cycles total = 0;
  Addr first = sim::LineBase(addr);
  for (std::uint64_t i = 0; i < sim::LinesCovering(addr, bytes); ++i) {
    Cycles lat = WriteLine(core, first + i * sim::kCacheLineBytes);
    total += lat;
    co_await exec_.Delay(lat);
  }
  co_return total;
}

Task<Cycles> CoherentMemory::WritePosted(int core, Addr addr, std::uint64_t bytes) {
  // State, traffic and contention are accounted as for a blocking write, but
  // the issuing core only pays the store-buffer retire cost per line.
  Addr first = sim::LineBase(addr);
  std::uint64_t n = sim::LinesCovering(addr, bytes);
  Cycles total = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    (void)WriteLine(core, first + i * sim::kCacheLineBytes);
    total += spec_.cost.store_posted;
    co_await exec_.Delay(spec_.cost.store_posted);
  }
  co_return total;
}

}  // namespace mk::hw
