// Core simulation types shared across the multikernel reproduction.
#ifndef MK_SIM_TYPES_H_
#define MK_SIM_TYPES_H_

#include <cstdint>
#include <limits>

namespace mk::sim {

// Simulated time, measured in CPU core clock cycles. All latencies reported by
// the benchmark harnesses are in these units, matching the paper's figures.
using Cycles = std::uint64_t;

// A bound that never expires: an open-ended fault window, or a timed wait
// (Event::WaitTimeout and the RecvTimeout calls built on it) that waits
// unboundedly and schedules no timer.
inline constexpr Cycles kForever = std::numeric_limits<Cycles>::max();

// A simulated physical address. The machine model tracks coherence state at
// 64-byte cache-line granularity over this address space.
using Addr = std::uint64_t;

inline constexpr Addr kCacheLineBytes = 64;

// Rounds an address down to its cache-line base.
constexpr Addr LineBase(Addr a) { return a & ~(kCacheLineBytes - 1); }

// Number of cache lines covered by [addr, addr+bytes).
constexpr std::uint64_t LinesCovering(Addr addr, std::uint64_t bytes) {
  if (bytes == 0) {
    return 0;
  }
  Addr first = LineBase(addr);
  Addr last = LineBase(addr + bytes - 1);
  return (last - first) / kCacheLineBytes + 1;
}

}  // namespace mk::sim

#endif  // MK_SIM_TYPES_H_
