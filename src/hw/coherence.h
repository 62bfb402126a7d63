// Cache-coherence model: MOESI-style line states with broadcast probes
// (HyperTransport) or a snoop-filtered shared bus (front-side bus).
//
// The model tracks, per 64-byte line: which cores hold a copy and which core
// (if any) holds it modified. A line's home NUMA node is the node AllocLines
// placed it on, read back from its address. Each transaction computes a
// latency from the platform cost book plus FIFO queueing at the contended
// resource (home memory controller for fetches/upgrades, source package for
// cache-to-cache supply, the shared bus on FSB machines), charges the
// simulated clock, and records traffic on every link the transaction crosses.
//
// Four access flavors map to what real code paths do:
//   Read          - blocking load (polling a channel word, reading a message)
//   ReadPrefetched- load in a poll loop over an array of channel lines, where
//                   the hardware stride prefetcher hides most of the transfer
//                   (section 4.6 of the paper)
//   Write         - blocking store: completes after ownership is acquired
//                   (a synchronous message send)
//   WritePosted   - store retired through the store buffer; ownership is
//                   acquired in the background (pipelined/async sends).
#ifndef MK_HW_COHERENCE_H_
#define MK_HW_COHERENCE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hw/counters.h"
#include "hw/platform.h"
#include "hw/topology.h"
#include "sim/event.h"
#include "sim/executor.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::hw {

using sim::Addr;
using sim::Cycles;
using sim::Task;

class CoherentMemory {
 public:
  CoherentMemory(sim::Executor& exec, const PlatformSpec& spec, const Topology& topo,
                 PerfCounters& counters);

  // Allocates `lines` consecutive cache lines homed on NUMA node `node`.
  // Returns the base address (line-aligned); no address is ever handed out
  // twice, and an access to an address never handed out throws
  // std::out_of_range. Memory that lives as long as the machine (NIC rings,
  // channels, runtime barrier lines) stays a raw allocation: the directory
  // dies with the machine, so freeing it at teardown would be work for
  // nothing. Memory whose addresses die first is held by a LineRegion, which
  // frees it.
  Addr AllocLines(int node, std::uint64_t lines);

  // Returns the `lines` lines from `base` (allocated, not necessarily by one
  // AllocLines call) to never cached, and gives back the directory storage
  // of every 8-line group left with no cached line. Since no address is
  // reused, no later access sees a freed line: no simulated number changes,
  // the directory only shrinks to the live working set. No time is charged.
  void FreeLines(Addr base, std::uint64_t lines);

  // Blocking accesses covering [addr, addr+bytes). Latency is charged to the
  // simulated clock before the task resumes; the latency is also returned.
  Task<Cycles> Read(int core, Addr addr, std::uint64_t bytes = sim::kCacheLineBytes);
  Task<Cycles> Write(int core, Addr addr, std::uint64_t bytes = sim::kCacheLineBytes);

  // Poll-loop read benefiting from the stride prefetcher: a miss costs
  // cost.prefetched_read instead of a full transfer round trip. Coherence
  // state transitions and traffic are accounted identically to Read.
  Task<Cycles> ReadPrefetched(int core, Addr addr, std::uint64_t bytes = sim::kCacheLineBytes);

  // Store retired through the store buffer: the caller is charged only the
  // retire cost; ownership acquisition happens logically in the background
  // (state/traffic/contention are still accounted).
  Task<Cycles> WritePosted(int core, Addr addr, std::uint64_t bytes = sim::kCacheLineBytes);

  // True if `core` currently holds a valid copy of the line containing
  // `addr` (its next Read hits locally). Used by polling loops to model the
  // "line stays cached until invalidated" behavior without charging time.
  bool HasLine(int core, Addr addr) const;

  int HomeNode(Addr addr) const;

  // Diagnostics for invariant tests. An address never allocated reads as a
  // line never cached.
  int OwnerOf(Addr addr) const;
  std::uint64_t SharersOf(Addr addr) const;
  std::size_t DirectoryLines() const { return live_lines_; }

 private:
  // Line directory (DESIGN.md §6, "Line directory"): per NUMA node, a leaf
  // per 4,096 lines of the node's region maps each 8-line group to a slab
  // slot holding the group's state. Home node and line index come from the
  // address, so a lookup is index arithmetic with no hashing.
  static constexpr int kMaxNodes = 8;  // the largest platform, Amd8x4
  static constexpr std::uint64_t kGroupLines = 8;
  static constexpr std::uint64_t kLeafGroups = 512;
  static constexpr std::uint64_t kLeafLines = kLeafGroups * kGroupLines;
  static constexpr std::uint32_t kChunkGroups = 512;  // 40 KB: below malloc's mmap threshold

  // The state of 8 consecutive lines. A line is live exactly when it has a
  // sharer: every read and write leaves one, so a line no access has
  // touched reads as never cached, whether or not its group exists.
  struct Group {
    std::uint64_t sharers[kGroupLines];  // bit per core holding a valid copy
    std::int8_t owner[kGroupLines];      // core holding the line modified/owned, or -1
    std::uint32_t busy;                  // reservation block + 1, or 0 for none
  };
  // Group ids of 4,096 consecutive lines; id 0 is never handed out and
  // marks a group with no state.
  struct Leaf {
    std::uint32_t group[kLeafGroups] = {};
    std::uint32_t live = 0;  // non-zero ids
  };
  struct Node {
    Addr cursor = 0;  // next address AllocLines hands out
    std::vector<std::unique_ptr<Leaf>> leaves;  // by line index / kLeafLines
  };
  // A line's state: slot `slot` of `group`, homed on node `home`.
  struct LineRef {
    Group& group;
    std::uint64_t slot;
    int home;
  };

  // The node holding [addr, addr + lines lines). Throws std::out_of_range
  // unless AllocLines handed out the whole range.
  int CheckAllocated(Addr addr, std::uint64_t lines) const;
  // The number of lines [addr, addr + bytes) covers, checked as above.
  std::uint64_t CheckedLines(Addr addr, std::uint64_t bytes) const;
  // The state of the line at `line_addr` (allocated), made at its first touch.
  LineRef LineAt(Addr line_addr);
  // The sharers and owner of the line holding `addr`: {0, -1} for a line
  // never cached or never allocated.
  std::pair<std::uint64_t, int> StateOf(Addr addr) const;
  Group& GroupAt(std::uint32_t id) {
    return group_chunks_[id / kChunkGroups][id % kChunkGroups];
  }
  // A group whose 8 lines read as never cached: a released one if any.
  std::uint32_t NewGroup();
  // The cycle until which the line's supplier is busy with cache-to-cache
  // reads, 0 at first use.
  Cycles& BusyUntil(LineRef line);

  // Latency of a single-line transaction for `core` obtaining data from
  // `src_core` (cache-to-cache) or from memory when src_core < 0.
  Cycles TransferLatency(int core, int src_core, int home) const;
  // Queueing (waiting) delay for the contended resources of this transaction.
  // Cache-to-cache supply serializes per *line* (a supplier pipelines
  // distinct lines through its MSHRs but a single hot line is served one
  // requester at a time); writes and memory fetches serialize at the home
  // node's controller.
  Cycles ContentionDelay(LineRef line, int core, int src_core, bool is_write);
  // Records probe/data traffic for one transaction.
  void AccountTraffic(int core, int src_core, int home, bool data_from_memory);
  void AddPathDwords(int from_pkg, int to_pkg, std::uint64_t dwords);

  // One-line read/write state machine; returns latency (excluding l1 hits'
  // charge which is included). Does not advance the clock.
  Cycles ReadLine(int core, Addr line_addr, bool prefetched);
  Cycles WriteLine(int core, Addr line_addr);

  sim::Executor& exec_;
  const PlatformSpec& spec_;
  const Topology& topo_;
  PerfCounters& counters_;
  std::vector<sim::FifoResource> home_ctrl_;  // per package
  sim::FifoResource bus_;                     // FSB only
  std::array<Node, kMaxNodes> nodes_;
  std::vector<std::unique_ptr<Group[]>> group_chunks_;  // never move
  std::uint32_t groups_made_ = 1;                       // id 0 is never handed out
  std::vector<std::uint32_t> free_groups_;
  // Cache-to-cache reservations, one block per group that has had a
  // cross-package read; Group::busy is a block's index plus one.
  std::vector<std::array<Cycles, kGroupLines>> busy_blocks_;
  std::vector<std::uint32_t> free_busy_;
  std::size_t live_lines_ = 0;
};

// Simulated memory whose addresses die before their machine: allocates on
// construction and frees on destruction (CoherentMemory::FreeLines). A
// default-constructed region holds nothing. A region must not outlive the
// CoherentMemory it came from.
class LineRegion {
 public:
  LineRegion() = default;
  LineRegion(CoherentMemory& mem, int node, std::uint64_t lines)
      : mem_(&mem), base_(mem.AllocLines(node, lines)), lines_(lines) {}
  LineRegion(LineRegion&& other) noexcept
      : mem_(std::exchange(other.mem_, nullptr)), base_(other.base_), lines_(other.lines_) {}
  LineRegion& operator=(LineRegion&& other) noexcept {
    if (this != &other) {
      Free();
      mem_ = std::exchange(other.mem_, nullptr);
      base_ = other.base_;
      lines_ = other.lines_;
    }
    return *this;
  }
  LineRegion(const LineRegion&) = delete;
  LineRegion& operator=(const LineRegion&) = delete;
  ~LineRegion() { Free(); }

  explicit operator bool() const { return mem_ != nullptr; }
  Addr base() const { return base_; }

 private:
  void Free() {
    if (mem_ != nullptr) {
      mem_->FreeLines(base_, lines_);
    }
  }

  CoherentMemory* mem_ = nullptr;
  Addr base_ = 0;
  std::uint64_t lines_ = 0;
};

}  // namespace mk::hw

#endif  // MK_HW_COHERENCE_H_
