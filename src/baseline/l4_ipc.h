// L4-style synchronous same-core IPC baseline (paper Table 3).
//
// A classic microkernel IPC: sender and receiver are threads in different
// address spaces on the same core; a call is a direct context switch with a
// register-passed message. Fast, but every call switches address spaces
// (flushing the TLB on pre-tagged-TLB x86) and drags a larger cache footprint
// than URPC (Table 3: 25 I-cache + 13 D-cache lines vs URPC's 9 + 8).
//
// The raw one-way cost is a per-platform constant calibrated to the paper's
// measurement of L4Ka::Pistachio (424 cycles on the 2x2-core AMD system, the
// only platform the paper reports); other platforms carry estimates scaled by
// their kernel-path costs. The TLB flush is applied to the simulated TLB so
// downstream address translations observe the loss.
#ifndef MK_BASELINE_L4_IPC_H_
#define MK_BASELINE_L4_IPC_H_

#include <cstdint>

#include "hw/machine.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::baseline {

using sim::Cycles;
using sim::Task;

// Static cache-footprint constants from the paper's Table 3 (lines touched
// per IPC; these are code/data footprint properties, not simulated state).
inline constexpr int kL4IcacheLines = 25;
inline constexpr int kL4DcacheLines = 13;
inline constexpr int kUrpcIcacheLines = 9;
inline constexpr int kUrpcDcacheLines = 8;

class L4Ipc {
 public:
  L4Ipc(hw::Machine& machine, int core) : machine_(machine), core_(core) {}

  // Raw one-way IPC cost on this platform.
  Cycles RawLatency() const;

  // Synchronous call: one-way IPC to the server thread plus the implied
  // address-space switch (TLB flush side effect on this core).
  Task<> Call();

  std::uint64_t calls() const { return calls_; }

 private:
  hw::Machine& machine_;
  int core_;
  std::uint64_t calls_ = 0;
};

}  // namespace mk::baseline

#endif  // MK_BASELINE_L4_IPC_H_
