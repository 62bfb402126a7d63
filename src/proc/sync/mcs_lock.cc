#include "proc/sync/mcs_lock.h"

namespace mk::proc::sync {

McsLock::McsLock(hw::Machine& machine)
    : machine_(machine), tail_line_(machine_.mem(), 0, 1) {
  for (int c = 0; c < machine_.num_cores(); ++c) {
    nodes_.emplace_back(machine_.exec());
    nodes_.back().line = hw::LineRegion(machine_.mem(), machine_.topo().PackageOf(c), 1);
  }
}

sim::Task<> McsLock::Acquire(int core) {
  Node& n = nodes_[static_cast<std::size_t>(core)];
  n.next = -1;
  n.ready = false;
  // Initialize the qnode. The line is homed here but the previous releaser's
  // handoff write may have pulled it away; this write reclaims ownership.
  co_await machine_.mem().Write(core, n.line.base());
  // swap(tail, self): the queue position is taken when the RMW on the tail
  // line completes — the executor serializes contenders through the line's
  // FIFO resource, so host-state order equals grant order.
  const int pred = tail_;
  tail_ = core;
  co_await machine_.mem().Write(core, tail_line_.base());
  if (pred < 0) {
    holder_ = core;
    co_return;
  }
  // Link into the predecessor's node (one line transfer into its cache),
  // then spin locally until its release hands the lock over.
  Node& p = nodes_[static_cast<std::size_t>(pred)];
  co_await machine_.mem().Write(core, p.line.base());
  p.next = core;  // ordered after the write: visibility == completion
  p.linked.Signal();
  while (!n.ready) {
    co_await n.granted.Wait();
  }
  // The handoff write invalidated our copy of the qnode line; the local spin
  // loop's next read misses and fetches it from the releaser's cache.
  co_await machine_.mem().Read(core, n.line.base());
  holder_ = core;
}

sim::Task<> McsLock::Release(int core) {
  Node& n = nodes_[static_cast<std::size_t>(core)];
  // Check for a successor (a local read unless a successor's link write just
  // took the line).
  co_await machine_.mem().Read(core, n.line.base());
  if (n.next < 0 && tail_ == core) {
    // No successor: swing the tail back to empty (the release-side RMW on
    // the shared line).
    tail_ = -1;
    holder_ = -1;
    co_await machine_.mem().Write(core, tail_line_.base());
    co_return;
  }
  // A successor swapped in but has not linked yet: wait for the link.
  while (n.next < 0) {
    co_await n.linked.Wait();
  }
  const int succ = n.next;
  Node& s = nodes_[static_cast<std::size_t>(succ)];
  holder_ = -1;
  // Hand off: one write moving exactly the successor's spin line.
  co_await machine_.mem().Write(core, s.line.base());
  s.ready = true;
  s.granted.Signal();
  ++handoffs_;
}

}  // namespace mk::proc::sync
