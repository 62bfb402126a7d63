// Virtual address spaces: x86-64-style 4-level page tables manipulated by
// user-level code through capabilities (section 4.7).
//
// To map memory, a user task retypes RAM capabilities into frame capabilities
// (the memory to map); the CPU driver's sole role is checking those
// capabilities. (Barrelfish also backs page-table nodes with PageTable
// capabilities; here the nodes are created on demand.) A VSpace may be shared
// by dispatchers on several cores; each core's TLB caches translations, and
// any mapping removal or rights reduction must run a TLB shootdown before it
// is complete — the monitors drive that (section 5.1) through the hook that
// SetShootdownHook installs.
#ifndef MK_MM_VSPACE_H_
#define MK_MM_VSPACE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "caps/capability.h"
#include "hw/machine.h"
#include "hw/tlb.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::mm {

using sim::Cycles;
using sim::Task;

enum class MapErr {
  kOk = 0,
  kBadCap,       // capability missing or wrong type
  kNoRights,     // frame rights do not allow the mapping
  kOverlap,      // virtual range already mapped
  kNotMapped,    // unmap/protect of an unmapped page
  kBadAlign,     // unaligned address or size
};

const char* MapErrName(MapErr e);

struct Perms {
  bool write = true;
};

// One level of the 4-level radix tree; 9 bits per level, 4 KiB pages.
struct PageTableNode {
  struct Entry {
    bool present = false;
    bool writable = false;
    std::uint64_t frame = 0;                  // leaf: physical page base
    std::unique_ptr<PageTableNode> child;     // interior
  };
  std::array<Entry, 512> entries;
};

class VSpace {
 public:
  // `cores` is the set of cores whose dispatchers share this address space
  // (their TLBs may cache its translations).
  VSpace(hw::Machine& machine, caps::CapDb& caps, std::vector<int> cores);

  // Maps `frame_cap` (a Frame capability) at [vaddr, vaddr+frame.bytes).
  // Missing page-table nodes are created on demand (counted by
  // table_nodes()); no PageTable capability backs or bounds them.
  MapErr Map(caps::CapId frame_cap, std::uint64_t vaddr, Perms perms);

  // Removes the mapping at [vaddr, vaddr+bytes). Collects the affected cores
  // (those whose TLB may cache the range) and invokes the shootdown hook
  // before returning. Walk/update costs are charged to `initiator_core`.
  Task<MapErr> Unmap(int initiator_core, std::uint64_t vaddr, std::uint64_t bytes);

  // Reduces the mapping to read-only (the mprotect of Figure 7); requires a
  // shootdown just like unmap.
  Task<MapErr> Protect(int initiator_core, std::uint64_t vaddr, std::uint64_t bytes);

  // Software page-table walk: translates and fills the core's TLB, charging
  // the walk cost. Returns the physical address or ~0 on fault. A TLB hit
  // completes synchronously — zero simulated cycles, zero scheduled events.
  Task<std::uint64_t> Translate(int core, std::uint64_t vaddr);

  // Zero-cost lookup for assertions.
  bool IsMapped(std::uint64_t vaddr) const;
  bool IsWritable(std::uint64_t vaddr) const;

  // Shootdown driver installed by the monitor system: given the initiator and
  // the page addresses, it must guarantee no stale TLB entries remain on any
  // sharing core before completing.
  using ShootdownFn =
      std::function<Task<>(int initiator, std::vector<std::uint64_t> pages)>;
  void SetShootdownHook(ShootdownFn fn) { shootdown_ = std::move(fn); }

  const std::vector<int>& cores() const { return cores_; }

  // Number of page-table nodes allocated so far.
  std::size_t table_nodes() const { return table_nodes_; }

 private:
  PageTableNode::Entry* WalkTo(std::uint64_t vaddr, bool create);
  Task<MapErr> UnmapOrProtect(int initiator_core, std::uint64_t vaddr, std::uint64_t bytes,
                              bool protect_only);

  hw::Machine& machine_;
  caps::CapDb& caps_;
  std::vector<int> cores_;
  PageTableNode root_;
  std::size_t table_nodes_ = 1;
  ShootdownFn shootdown_;
};

}  // namespace mk::mm

#endif  // MK_MM_VSPACE_H_
