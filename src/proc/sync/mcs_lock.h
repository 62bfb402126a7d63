// MCS queue lock (Mellor-Crummey & Scott): FIFO handoff over per-core queue
// nodes, each a cache line homed on its own core's NUMA node.
//
// Acquire swaps itself onto a single shared tail line (the only line every
// contender touches, one read-modify-write per acquisition), links into its
// predecessor's node, and then spins on its *own* line — so a release moves
// exactly one line (the successor's spin flag) between exactly two cores,
// regardless of how many waiters queue behind. A test-and-set or ticket lock
// instead invalidates every spinner's copy of one central line on each
// release and all of them refetch it: an O(waiters) coherence storm per
// handoff that bench/sync_scaling.cc measures against this lock.
//
// The queue order (and therefore the acquisition order) is the order in
// which contenders complete their tail swap: strict FIFO, pinned by
// tests/sync_test.cc.
#ifndef MK_PROC_SYNC_MCS_LOCK_H_
#define MK_PROC_SYNC_MCS_LOCK_H_

#include <cstdint>
#include <deque>

#include "hw/machine.h"
#include "sim/event.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::proc::sync {

class McsLock {
 public:
  explicit McsLock(hw::Machine& machine);

  // Blocks the calling thread (running on `core`) until it owns the lock.
  // A core must not acquire while it already holds or waits (one queue node
  // per core, as in the classic algorithm).
  sim::Task<> Acquire(int core);
  sim::Task<> Release(int core);

  bool locked() const { return holder_ >= 0; }
  int holder() const { return holder_; }
  // True when the queue has drained (stress-test invariant: a lost handoff
  // leaves the tail pointing at a parked waiter forever).
  bool queue_empty() const { return tail_ < 0; }
  std::uint64_t handoffs() const { return handoffs_; }

 private:
  struct Node {
    explicit Node(sim::Executor& exec) : granted(exec), linked(exec) {}
    hw::LineRegion line;  // the qnode: spin flag + next pointer, homed locally
    int next = -1;
    bool ready = false;
    sim::Event granted;   // signaled by the predecessor's handoff write
    sim::Event linked;    // signaled by the successor once `next` is visible
  };

  hw::Machine& machine_;
  hw::LineRegion tail_line_;  // the swap target: the one globally shared line
  int tail_ = -1;
  int holder_ = -1;
  std::uint64_t handoffs_ = 0;
  std::deque<Node> nodes_;  // one per core; deque: Node is not movable
};

}  // namespace mk::proc::sync

#endif  // MK_PROC_SYNC_MCS_LOCK_H_
