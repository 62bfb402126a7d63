// User-level threads over dispatchers (sections 4.5 and 4.8).
//
// A process in the multikernel is a collection of dispatchers, one per core,
// sharing a virtual address space; the default library provides POSIX-like
// threads on top. Synchronization comes in two flavors, mirroring the
// Figure 9 comparison:
//
//   * the Barrelfish user-space primitives (spin on coherent cache lines,
//     block in the user-level scheduler) — no kernel involvement;
//   * "kernel" (futex-style) primitives as in Linux/GOMP, where contended
//     paths cross the kernel boundary (system call + scheduler wakeups);
//   * the scalable library (src/proc/sync/): MCS queue locks and
//     tournament/combining-tree barriers with local spinning on NUMA-homed
//     lines, replacing the centralized primitives' coherence storms.
//
// All operate on the simulated coherent memory, so their scaling behavior
// (counter-line contention, wake-up costs) emerges from the machine model.
#ifndef MK_PROC_THREADS_H_
#define MK_PROC_THREADS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "hw/machine.h"
#include "sim/event.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::proc {

namespace sync {
class McsLock;
class TreeBarrier;
}  // namespace sync

using sim::Addr;
using sim::Cycles;
using sim::Task;

enum class SyncFlavor {
  kUserSpace,  // Barrelfish library: coherent-line spin + user-level block
  kKernel,     // futex-style: syscall on the contended path
  kScalable,   // MCS queue lock + tournament/combining-tree barrier
};

// Barrier facade, dispatching on the flavor chosen at construction:
// centralized sense-reversing counter (kUserSpace/kKernel, the original code
// paths, untouched) or the tournament tree (kScalable). `cores[i]` names the
// core party i arrives on — required for the tree's NUMA homing; empty means
// party i == core i. The centralized flavors ignore it.
class Barrier {
 public:
  Barrier(hw::Machine& machine, int parties, SyncFlavor flavor, int home_node = 0,
          std::vector<int> cores = {});
  ~Barrier();

  // Blocks the calling thread (running on `core`) until all parties arrive.
  Task<> Arrive(int core);

  int parties() const { return parties_; }
  SyncFlavor flavor() const { return flavor_; }

 private:
  hw::Machine& machine_;
  int parties_;
  SyncFlavor flavor_;
  Addr count_line_;
  Addr release_line_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  sim::Event release_;
  std::unique_ptr<sync::TreeBarrier> tree_;  // kScalable only
};

// Mutex facade: test-and-set fast path on a coherent line (kUserSpace),
// futex-style syscalls on contention (kKernel), or the MCS queue lock
// (kScalable).
class Mutex {
 public:
  Mutex(hw::Machine& machine, SyncFlavor flavor, int home_node = 0);
  ~Mutex();

  Task<> Lock(int core);
  Task<> Unlock(int core);
  bool locked() const;
  SyncFlavor flavor() const { return flavor_; }

 private:
  hw::Machine& machine_;
  SyncFlavor flavor_;
  hw::LineRegion line_;  // the test-and-set line; kUserSpace/kKernel only
  bool locked_ = false;
  int waiters_ = 0;
  sim::Event available_;
  std::unique_ptr<sync::McsLock> mcs_;  // kScalable only
};

// A team of worker threads, one pinned to each given core (the typical
// OpenMP/SPLASH setup). Run() executes the body on every worker and awaits
// them all; per-thread spawn/join costs are charged.
class ThreadTeam {
 public:
  using Body = std::function<Task<>(int tid, int core)>;

  ThreadTeam(hw::Machine& machine, std::vector<int> cores);

  int size() const { return static_cast<int>(cores_.size()); }
  int core_of(int tid) const { return cores_[static_cast<std::size_t>(tid)]; }
  const std::vector<int>& cores() const { return cores_; }
  hw::Machine& machine() { return machine_; }

  // Forks size() threads running `body` and joins them.
  Task<> Run(const Body& body);

 private:
  hw::Machine& machine_;
  std::vector<int> cores_;
};

// Cross-core thread migration (section 4.8): the thread schedulers on each
// dispatcher exchange messages to migrate threads. Returns the charged cost;
// state consistency is the caller's (user-level scheduler's) business.
Task<Cycles> MigrateThread(hw::Machine& machine, int from_core, int to_core);

}  // namespace mk::proc

#endif  // MK_PROC_THREADS_H_
