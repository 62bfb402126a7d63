#include "sim/executor.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>

namespace mk::sim {
namespace {

// Wrapper coroutine owning a detached task's frame. Self-destroys on
// completion (final_suspend never suspends).
struct Detached {
  struct promise_type {
    Detached get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      try {
        std::rethrow_exception(std::current_exception());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fatal: exception escaped detached sim task: %s\n", e.what());
      } catch (...) {
        std::fprintf(stderr, "fatal: unknown exception escaped detached sim task\n");
      }
      std::abort();
    }
  };
};

Detached RunDetached(Task<> task, std::size_t* live_counter) {
  co_await std::move(task);
  --*live_counter;
}

}  // namespace

void Executor::Spawn(Task<> task) {
  ++live_tasks_;
  // The wrapper starts eagerly; the inner task suspends at its first await or
  // completes synchronously, decrementing the live counter.
  RunDetached(std::move(task), &live_tasks_);
}

Cycles Executor::NextNearCycle() const {
  const std::size_t start = static_cast<std::size_t>(now_ & kWindowMask);
  const std::size_t start_word = start >> 6;
  // The start word, masked to slots at or after `start`.
  std::uint64_t word = occupied_[start_word] & (~std::uint64_t{0} << (start & 63));
  std::size_t w = start_word;
  for (std::size_t step = 0;; ++step) {
    if (word != 0) {
      const std::size_t slot = (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      const Cycles d = static_cast<Cycles>((slot + kNearWindow - start) & kWindowMask);
      return now_ + d;
    }
    w = (w + 1) & (kBitmapWords - 1);
    word = occupied_[w];
    if (step == kBitmapWords - 1) {
      // Wrapped back to the start word: only slots before `start` remain
      // (they are the most distant cycles of the window).
      word &= ~(~std::uint64_t{0} << (start & 63));
    }
  }
}

bool Executor::NextEventTime(Cycles* out) const {
  // Every near event precedes every far one: the far heap holds nothing
  // inside [now_, now_ + kNearWindow).
  if (near_count_ > 0) {
    *out = NextNearCycle();
    return true;
  }
  if (!far_.empty()) {
    *out = far_.front().at;
    return true;
  }
  return false;
}

void Executor::AbortCrossThreadPush() const {
  std::fprintf(stderr,
               "fatal: cross-thread push into domain %d's event queue — a "
               "component is shared between engine domains (route it through "
               "ParallelEngine::Post instead)\n",
               domain_);
  std::abort();
}

Executor::Node* Executor::RefillFreelist() {
  // Default-init (not value-init): node callbacks construct empty, the rest
  // of each node's 80 bytes stays untouched until first use.
  std::unique_ptr<Node[]> chunk(new Node[kNodeChunk]);
  for (std::size_t i = kNodeChunk - 1; i >= 1; --i) {
    chunk[i].next = free_;
    free_ = &chunk[i];
  }
  Node* n = &chunk[0];
  chunks_.push_back(std::move(chunk));
  return n;
}

void Executor::AdvanceTo(Cycles t) {
  now_ = t;
  while (!far_.empty() && far_.front().at - now_ < kNearWindow) {
    std::pop_heap(far_.begin(), far_.end(), FarLater{});
    LinkNear(far_.back().at, far_.back().node);
    far_.pop_back();
  }
}

void Executor::DispatchCycle() {
  const std::size_t slot = static_cast<std::size_t>(now_ & kWindowMask);
  // Pop-invoke until the bucket drains. An invoked event may append
  // same-cycle events (an Event's wake-ups); they link onto the tail
  // and this loop reaches them in insertion order. The head node is
  // unlinked before invoking, so mid-dispatch appends to an emptied bucket
  // start a fresh list. Coroutine resumptions — the dominant event kind —
  // skip the type-erased invoke and destroy calls entirely.
  Node* n;
  std::uint64_t dispatched = 0;
  while ((n = bucket_head_[slot]) != nullptr) {
    bucket_head_[slot] = n->next;
    if (n->next == nullptr) {
      bucket_tail_[slot] = nullptr;
    }
    --near_count_;
    ++events_dispatched_;
    ++dispatched;
    if (n->cb.holds<ResumeFn>()) {
      const std::coroutine_handle<> h = n->cb.get_unchecked<ResumeFn>().handle;
      n->cb.discard_unchecked<ResumeFn>();
      PutNode(n);  // node is dead before resume; the callee may reuse it
      h.resume();
    } else {
      n->cb();     // in place: the node is unlinked but still owned here
      n->cb.reset();
      PutNode(n);
    }
  }
  occupied_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  trace::Emit<trace::Category::kExec>(trace::EventId::kExecCycle, now_,
                                      trace::kExecutorTrack, dispatched);
}

bool Executor::Step(Cycles deadline) {
  Cycles t = 0;
  if (!NextEventTime(&t) || t > deadline) {
    return false;
  }
  AdvanceTo(t);  // may jump an empty gap; migrates the far events now due
  DispatchCycle();
  return true;
}

Cycles Executor::Run() {
  while (Step(std::numeric_limits<Cycles>::max())) {
  }
  return now_;
}

bool Executor::RunUntil(Cycles deadline) {
  while (Step(deadline)) {
  }
  if (now_ < deadline) {
    AdvanceTo(deadline);  // keep the far-migration invariant at the new time
  }
  return pending_events() != 0;
}

}  // namespace mk::sim
