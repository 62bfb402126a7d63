// Cache-coherence model: MOESI-style line states with broadcast probes
// (HyperTransport) or a snoop-filtered shared bus (front-side bus).
//
// The model tracks, per 64-byte line: which cores hold a copy, which core (if
// any) holds it modified, and the line's home NUMA node. Each transaction
// computes a latency from the platform cost book plus FIFO queueing at the
// contended resource (home memory controller for fetches/upgrades, source
// package for cache-to-cache supply, the shared bus on FSB machines), charges
// the simulated clock, and records traffic on every link the transaction
// crosses.
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

#include <cstddef>
#include <cstdint>
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
  // twice. Memory that lives as long as the machine (NIC rings, channels,
  // runtime barrier lines) stays a raw allocation: the directory dies with
  // the machine, so freeing it at teardown would be work for nothing. Memory
  // whose addresses die first is held by a LineRegion, which frees it.
  Addr AllocLines(int node, std::uint64_t lines);

  // Erases the `lines` lines from `base` (one AllocLines result) from the
  // directory. Since no address is reused, no later access sees a freed
  // line: no simulated number changes, the directory only shrinks to the
  // live working set. No time is charged.
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

  // Diagnostics for invariant tests.
  int OwnerOf(Addr addr) const;
  std::uint64_t SharersOf(Addr addr) const;
  std::size_t DirectoryLines() const { return lines_.size(); }

 private:
  struct Line {
    std::uint64_t sharers = 0;  // bit per core holding a valid copy
    int owner = -1;             // core holding the line modified/owned, or -1
    int home = 0;               // home package (NUMA node)
  };

  // Open-addressed map from a line address to a value held inline in its
  // slot (see DESIGN.md, "Line directory"). Linear probing; the eight lines
  // of one 512-byte group start probing at eight adjacent slots. Storage is
  // allocated at the first insert, doubles at 3/4 load and never shrinks.
  template <typename V>
  class LineTable {
   public:
    const V* Find(Addr line_addr) const;
    // Returns the value for `line_addr` and whether this call inserted it
    // (value-initialized).
    std::pair<V*, bool> FindOrInsert(Addr line_addr);
    // Removes `line_addr` if present, by backward-shift deletion: no
    // tombstone is left, so later probes are as short as if the line had
    // never been inserted.
    void Erase(Addr line_addr);
    std::size_t size() const { return used_; }

   private:
    struct Slot {
      Addr key;
      V value;
    };
    static_assert(sizeof(Slot) == sizeof(Addr) + sizeof(V), "slot must not pad");
    // The slot where the probe for `line_addr` starts.
    std::size_t Home(Addr line_addr) const;
    // Index of the slot holding `line_addr`, or of the empty slot where its
    // probe ends. Requires allocated storage.
    std::size_t Probe(Addr line_addr) const;
    void Grow();

    std::vector<Slot> slots_;  // empty until the first insert, then a power of two
    std::size_t used_ = 0;
    int group_shift_ = 64;  // 64 - log2(slots_.size() / 8)
  };

  Line& LineAt(Addr line_addr);

  // Latency of a single-line transaction for `core` obtaining data from
  // `src_core` (cache-to-cache) or from memory when src_core < 0.
  Cycles TransferLatency(int core, int src_core, int home) const;
  // Queueing (waiting) delay for the contended resources of this transaction.
  // Cache-to-cache supply serializes per *line* (a supplier pipelines
  // distinct lines through its MSHRs but a single hot line is served one
  // requester at a time); writes and memory fetches serialize at the home
  // node''s controller.
  Cycles ContentionDelay(Addr line_addr, int core, int src_core, int home, bool is_write);
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
  LineTable<Line> lines_;
  std::vector<sim::FifoResource> home_ctrl_;  // per package
  LineTable<Cycles> c2c_busy_until_;          // per hot line: supplier busy until
  sim::FifoResource bus_;                     // FSB only
  std::vector<Addr> node_cursor_;             // per-node allocation cursors
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
