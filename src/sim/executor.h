// Deterministic discrete-event executor: the simulated machine's clock.
//
// All simulated activity is driven by a two-tier timestamped event queue.
// Every queued event is one freelist-recycled node holding its callback,
// from push to dispatch, whichever tier orders it:
//
//   * Near tier — a ring of per-cycle FIFO buckets covering the next
//     kNearWindow cycles. Simulated delays cluster around small constants
//     (cache transfers, IPI wires, kernel paths are all well under 1024
//     cycles), so a near event is an O(1) bucket append and an O(1) pop,
//     with an occupancy bitmap to skip empty cycles.
//   * Far tier — a binary heap of {timestamp, insertion sequence, node}
//     records for events beyond the window: timer-wheel ticks, keep-alive
//     and backoff timers, workload pacing. They are not rare: 13%
//     (rack_get) to 85% (conn_keepalive) of the perfbench workloads' events
//     (DESIGN.md §6). A heap sift moves the 24-byte record, never the
//     callback. Far events migrate into the ring as the clock approaches
//     them by relinking their node, strictly before any same-cycle near
//     event can be enqueued, so global FIFO tie-breaking is preserved.
//
// Ties at one timestamp always run in insertion order, so a given seed
// produces a bit-identical run. Steady-state dispatch does no heap
// allocation: events carry an InlineCallback (56-byte small-buffer
// callable) in nodes allocated in chunks, and coroutine resumption stores
// just the handle. There is no single-event fast path: a lone task looping
// on Delay() pays the ordinary per-event cost (BM_CoroutineDelayLoop,
// Release on a 4-core Xeon: about 22 ns per delay, against 8 ns with such a
// path), a shape no workload has. The executor is single-threaded by
// design; parallelism in the simulated machine is expressed as interleaved
// events, not host threads.
#ifndef MK_SIM_EXECUTOR_H_
#define MK_SIM_EXECUTOR_H_

#include <algorithm>
#include <array>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/task.h"
#include "sim/types.h"
#include "trace/trace.h"

namespace mk::sim {

class ParallelEngine;

class Executor {
 public:
  // Width of the near-future bucket ring, in cycles. Power of two; sized to
  // cover the simulator's common delay constants (Delay(50..800)).
  static constexpr Cycles kNearWindow = 1024;

  Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  Cycles now() const { return now_; }

  // Resumes `h` at absolute time `t` (clamped to now()).
  void ScheduleAt(Cycles t, std::coroutine_handle<> h) { PushHandle(t, h); }

  // Runs `fn` at absolute time `t` (clamped to now()). Callables up to
  // InlineCallback::kInlineBytes are stored without heap allocation.
  void CallAt(Cycles t, InlineCallback fn) {
    CheckOwner();
    Node* n = GetNode();
    n->cb = std::move(fn);
    Enqueue(t, n);
  }

  // Awaitable: suspends the current task for `d` cycles of simulated time.
  auto Delay(Cycles d) {
    struct Awaiter {
      Executor* exec;
      Cycles delay;
      bool await_ready() const noexcept { return delay == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        exec->PushHandle(exec->now_ + delay, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  // Starts a detached task. The executor owns its frame until completion; an
  // exception escaping a detached task aborts the simulation with a message.
  void Spawn(Task<> task);

  // Runs until the event queue drains. Returns the final simulated time.
  Cycles Run();

  // Runs events with timestamp <= `deadline`. Returns true if events remain.
  bool RunUntil(Cycles deadline);

  // Detached tasks spawned and not yet completed.
  std::size_t live_tasks() const { return live_tasks_; }

  // Total events dispatched so far (diagnostics / microbenchmarks).
  std::uint64_t events_dispatched() const { return events_dispatched_; }

  // Events currently queued across both tiers (invariant checks: a fully
  // drained run must report zero).
  std::size_t pending_events() const { return near_count_ + far_.size(); }

  // Earliest pending event's timestamp across both tiers; false when drained.
  // Used by the parallel engine to plan the next epoch window.
  bool NextEventTime(Cycles* out) const;

  // --- Parallel-engine binding (sim/parallel.h) ---
  //
  // A plain Executor is one engine *domain* when owned by a ParallelEngine;
  // standalone executors stay domain 0 with no engine. The binding is
  // observer state: it never changes the event schedule.
  int domain() const { return domain_; }
  ParallelEngine* engine() const { return engine_; }
  void BindEngine(ParallelEngine* engine, int domain) {
    engine_ = engine;
    domain_ = domain;
  }

  // While enforced, every push must come from `owner` — the host thread the
  // engine assigned this domain to. A push from any other thread is a
  // partitioning bug (two domains sharing mutable state), and under real
  // parallelism it would be a data race; abort loudly instead of corrupting
  // the queue. Enforcement is off (one branch on a cold bool) for
  // single-threaded runs, so the hot path is unchanged.
  void SetOwnerThread(std::thread::id owner, bool enforce) {
    owner_ = owner;
    enforce_owner_ = enforce;
  }

 private:
  static constexpr Cycles kWindowMask = kNearWindow - 1;
  static constexpr std::size_t kBitmapWords = kNearWindow / 64;

  // Resumes a suspended coroutine; 8 bytes, always stored inline.
  struct ResumeFn {
    std::coroutine_handle<> handle;
    void operator()() const { handle.resume(); }
  };

  // One queued event, near or far. Nodes come from chunked slabs and are
  // recycled through a freelist, so warm-up costs O(chunks) allocations and
  // steady state costs none. `next` links the node into its cycle's FIFO
  // bucket, or into the freelist.
  struct Node {
    InlineCallback cb;
    Node* next;
  };

  // A far-tier heap record: the heap orders these, the node stays put.
  struct FarItem {
    Cycles at;
    std::uint64_t seq;
    Node* node;
  };
  struct FarLater {
    bool operator()(const FarItem& a, const FarItem& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };

  void PushHandle(Cycles t, std::coroutine_handle<> h) {
    CheckOwner();
    Node* n = GetNode();
    n->cb.emplace(ResumeFn{h});  // inline store: no type-erased call
    Enqueue(t, n);
  }

  // Clamps `t` to now() and queues `n` in the near ring or the far heap.
  void Enqueue(Cycles t, Node* n) {
    if (t < now_) {
      t = now_;
    }
    if (t - now_ < kNearWindow) {
      LinkNear(t, n);
    } else {
      far_.push_back(FarItem{t, next_seq_++, n});
      std::push_heap(far_.begin(), far_.end(), FarLater{});
    }
  }

  void LinkNear(Cycles t, Node* n) {
    const std::size_t slot = static_cast<std::size_t>(t & kWindowMask);
    n->next = nullptr;
    if (bucket_tail_[slot] != nullptr) {
      bucket_tail_[slot]->next = n;
    } else {
      bucket_head_[slot] = n;
    }
    bucket_tail_[slot] = n;
    occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++near_count_;
  }

  Node* GetNode() {
    Node* n = free_;
    if (n != nullptr) {
      free_ = n->next;
      return n;
    }
    return RefillFreelist();
  }

  void PutNode(Node* n) noexcept {
    n->next = free_;
    free_ = n;
  }

  // Allocates a fresh chunk of nodes, seeds the freelist, returns one node.
  Node* RefillFreelist();

  // Scans the occupancy bitmap for the earliest non-empty bucket cycle.
  // Requires near_count_ > 0.
  Cycles NextNearCycle() const;

  // Sets now_ = t and restores the invariant that the far heap holds no
  // event inside [now_, now_ + kNearWindow) by migrating due far events
  // into the ring. Must run before any event at the new time dispatches,
  // so that migrated (older-sequence) events precede same-cycle arrivals.
  void AdvanceTo(Cycles t);

  // Dispatches every event in the bucket for now_, including events appended
  // to it mid-dispatch (an Event's wake-ups and other same-cycle scheduling).
  void DispatchCycle();

  // The one dispatch step of Run and RunUntil: advances the clock to the
  // earliest pending cycle and dispatches it, if that cycle is at or before
  // `deadline`. Returns false, changing nothing, otherwise.
  bool Step(Cycles deadline);

  void CheckOwner() const {
    if (enforce_owner_ && std::this_thread::get_id() != owner_) {
      AbortCrossThreadPush();
    }
  }
  [[noreturn]] void AbortCrossThreadPush() const;

  Cycles now_ = 0;
  int domain_ = 0;                     // engine domain id; 0 standalone
  ParallelEngine* engine_ = nullptr;   // owning engine, if any
  bool enforce_owner_ = false;         // multi-threaded engine runs only
  std::thread::id owner_;
  std::uint64_t next_seq_ = 0;  // orders far-heap ties; near ties are FIFO by append
  std::uint64_t events_dispatched_ = 0;
  std::size_t live_tasks_ = 0;
  std::size_t near_count_ = 0;
  std::array<Node*, kNearWindow> bucket_head_{};  // per-cycle FIFO lists
  std::array<Node*, kNearWindow> bucket_tail_{};
  std::array<std::uint64_t, kBitmapWords> occupied_{};
  Node* free_ = nullptr;  // recycled-node freelist
  static constexpr std::size_t kNodeChunk = 128;
  std::vector<std::unique_ptr<Node[]>> chunks_;  // node slabs; owns all nodes
  std::vector<FarItem> far_;  // binary heap via std::push_heap/pop_heap
};

}  // namespace mk::sim

#endif  // MK_SIM_EXECUTOR_H_
