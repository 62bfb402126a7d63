#include "proc/threads.h"

#include "proc/sync/mcs_lock.h"
#include "proc/sync/tree_barrier.h"

namespace mk::proc {

Barrier::Barrier(hw::Machine& machine, int parties, SyncFlavor flavor, int home_node,
                 std::vector<int> cores)
    : machine_(machine), parties_(parties), flavor_(flavor), release_(machine.exec()) {
  if (flavor_ == SyncFlavor::kScalable) {
    tree_ = std::make_unique<sync::TreeBarrier>(machine_, parties_, std::move(cores));
    return;  // no centralized lines: the tree owns all barrier state
  }
  count_line_ = machine_.mem().AllocLines(home_node, 1);
  release_line_ = machine_.mem().AllocLines(home_node, 1);
}

Barrier::~Barrier() = default;

Task<> Barrier::Arrive(int core) {
  if (tree_) {
    co_await tree_->Arrive(tree_->PartyOfCore(core));
    co_return;
  }
  // Atomic increment of the arrival counter: a coherent read-modify-write on
  // a line every arriving core touches (the contention point).
  co_await machine_.mem().Write(core, count_line_);
  if (flavor_ == SyncFlavor::kKernel) {
    // GOMP-style: the barrier crosses the kernel (futex syscall) even before
    // deciding to sleep.
    co_await machine_.Syscall(core);
  }
  if (++arrived_ == parties_) {
    arrived_ = 0;
    ++generation_;
    // Release: flip the sense line; all spinners re-fetch it.
    co_await machine_.mem().Write(core, release_line_);
    if (flavor_ == SyncFlavor::kKernel) {
      // futex_wake walks and wakes each sleeper in the kernel.
      co_await machine_.Compute(core, machine_.cost().syscall +
                                          static_cast<Cycles>(parties_ - 1) * 350);
    }
    release_.Signal();
    co_return;
  }
  std::uint64_t gen = generation_;
  while (generation_ == gen) {
    co_await release_.Wait();
  }
  // The releasing write invalidated our copy of the sense line; the spin
  // loop's next read misses and fetches it.
  co_await machine_.mem().Read(core, release_line_);
  if (flavor_ == SyncFlavor::kKernel) {
    // Woken out of futex_wait: return to user through the scheduler.
    co_await machine_.Compute(core, machine_.cost().context_switch / 2);
  }
}

Mutex::Mutex(hw::Machine& machine, SyncFlavor flavor, int home_node)
    : machine_(machine), flavor_(flavor), available_(machine.exec()) {
  if (flavor_ == SyncFlavor::kScalable) {
    mcs_ = std::make_unique<sync::McsLock>(machine_);
    return;  // the MCS queue owns all lock state; no central test-and-set line
  }
  line_ = hw::LineRegion(machine_.mem(), home_node, 1);
}

Mutex::~Mutex() = default;

bool Mutex::locked() const { return mcs_ ? mcs_->locked() : locked_; }

Task<> Mutex::Lock(int core) {
  if (mcs_) {
    co_await mcs_->Acquire(core);
    co_return;
  }
  while (true) {
    // Test-and-set: a coherent write on the lock line.
    co_await machine_.mem().Write(core, line_.base());
    if (!locked_) {
      locked_ = true;
      co_return;
    }
    ++waiters_;
    if (flavor_ == SyncFlavor::kKernel) {
      // futex_wait on contention.
      co_await machine_.Syscall(core);
      co_await available_.Wait();
      co_await machine_.Compute(core, machine_.cost().context_switch / 2);
    } else {
      // User-space: brief spin then yield to the local dispatcher.
      co_await machine_.exec().Delay(120);
      co_await available_.Wait();
    }
    --waiters_;
  }
}

Task<> Mutex::Unlock(int core) {
  if (mcs_) {
    co_await mcs_->Release(core);
    co_return;
  }
  locked_ = false;
  co_await machine_.mem().Write(core, line_.base());
  if (waiters_ > 0) {
    if (flavor_ == SyncFlavor::kKernel) {
      co_await machine_.Syscall(core);  // futex_wake
    }
    available_.SignalOne();
  }
}

ThreadTeam::ThreadTeam(hw::Machine& machine, std::vector<int> cores)
    : machine_(machine), cores_(std::move(cores)) {}

namespace {

Task<> RunWorker(hw::Machine& machine, const ThreadTeam::Body& body, int tid, int core,
                 int* remaining, sim::Event* joined) {
  // Thread start-up: dispatch onto the core.
  co_await machine.Compute(core, machine.cost().dispatch);
  co_await body(tid, core);
  if (--*remaining == 0) {
    joined->Signal();
  }
}

}  // namespace

Task<> ThreadTeam::Run(const Body& body) {
  int remaining = size();
  sim::Event joined(machine_.exec());
  for (int tid = 0; tid < size(); ++tid) {
    machine_.exec().Spawn(
        RunWorker(machine_, body, tid, cores_[static_cast<std::size_t>(tid)], &remaining,
                  &joined));
  }
  while (remaining > 0) {
    co_await joined.Wait();
  }
}

Task<Cycles> MigrateThread(hw::Machine& machine, int from_core, int to_core) {
  const Cycles t0 = machine.exec().now();
  // The source dispatcher packages the thread state (a couple of lines) and
  // messages the destination dispatcher, which dispatches the thread.
  hw::LineRegion state(machine.mem(), machine.topo().PackageOf(from_core), 2);
  co_await machine.mem().Write(from_core, state.base(), 2 * sim::kCacheLineBytes);
  co_await machine.mem().Read(to_core, state.base(), 2 * sim::kCacheLineBytes);
  co_await machine.Compute(to_core, machine.cost().dispatch);
  co_return machine.exec().now() - t0;
}

}  // namespace mk::proc
