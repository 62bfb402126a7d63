// Synchronization primitives for simulated tasks: Event, Semaphore and
// FifoResource.
//
// These are *simulation-level* primitives (they cost zero simulated cycles to
// use); they model control-flow coupling inside one simulated component.
// Anything that should cost cycles or interconnect traffic must instead go
// through the hw:: machine model.
//
// Waiter bookkeeping is intrusive: a plain Wait() links a node that lives in
// the awaiting coroutine's frame into the event's doubly-linked waiter list,
// so registering and waking a waiter does no heap allocation. Only
// WaitTimeout() allocates (a shared node kept alive for the timer callback;
// see the comment there) — acceptable because timed waits are the cold
// blocking path, not the message fast path.
#ifndef MK_SIM_EVENT_H_
#define MK_SIM_EVENT_H_

#include <coroutine>
#include <cstddef>
#include <deque>
#include <memory>
#include <utility>

#include "sim/executor.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::sim {

// A broadcast condition: Wait() suspends until the next Signal(). Signal wakes
// every currently-waiting task at the current simulated time. WaitTimeout()
// additionally resumes after a deadline, reporting whether the event fired.
class Event {
 public:
  explicit Event(Executor& exec) : exec_(exec) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  auto Wait() {
    struct Awaiter {
      Event* event;
      WaitNode node;
      explicit Awaiter(Event* e) : event(e) {}
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        node.handle = h;
        event->Link(&node);
      }
      void await_resume() noexcept {}
      // The node lives in this awaiter (in the coroutine frame). If the frame
      // dies — normally right after resuming, exceptionally if the task is
      // destroyed while suspended — drop the node from the waiter list.
      ~Awaiter() { event->UnlinkIfLinked(&node); }
    };
    return Awaiter(this);
  }

  // Suspends until Signal() or until `timeout` cycles elapse, whichever comes
  // first. Returns true if the event was signaled in time. A timeout of
  // kForever schedules no timer: the wait is Wait() that returns true.
  //
  // The node is heap-allocated and shared with the timer callback: the timer
  // cannot be cancelled once scheduled, and it may fire long after the waiter
  // was signaled, resumed, and destroyed — the shared_ptr keeps the node (and
  // its flags) valid until then. The list only ever holds the node while this
  // awaiter is alive (await_resume/destructor unlink it).
  auto WaitTimeout(Cycles timeout) {
    struct Awaiter {
      Event* event;
      Cycles timeout;
      std::shared_ptr<WaitNode> node;
      Awaiter(Event* e, Cycles t) : event(e), timeout(t) {}
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        node = std::make_shared<WaitNode>();
        node->handle = h;
        event->Link(node.get());
        if (timeout == kForever) {
          return;
        }
        Executor& exec = event->exec_;
        exec.CallAt(exec.now() + timeout, [node = node, &exec] {
          if (node->active) {
            node->active = false;
            node->signaled = false;
            exec.ScheduleAt(exec.now(), node->handle);
          }
        });
      }
      bool await_resume() noexcept {
        event->UnlinkIfLinked(node.get());
        return node->signaled;
      }
      ~Awaiter() {
        if (node != nullptr) {
          event->UnlinkIfLinked(node.get());
          node->active = false;  // a still-pending timer must not resume us
        }
      }
    };
    return Awaiter(this, timeout);
  }

  // Wakes all waiters. Waiters registered after this call wait for the next
  // signal.
  void Signal() {
    WaitNode* n = head_;
    head_ = tail_ = nullptr;
    while (n != nullptr) {
      WaitNode* next = n->next;  // read before waking: the node belongs to the waiter
      n->linked = false;
      n->prev = n->next = nullptr;
      WakeNode(*n);
      n = next;
    }
  }

  // Wakes the oldest waiter, if any. Returns whether a waiter was woken.
  bool SignalOne() {
    while (head_ != nullptr) {
      WaitNode* n = head_;
      UnlinkIfLinked(n);
      if (n->active) {
        WakeNode(*n);
        return true;
      }
    }
    return false;
  }

  std::size_t waiter_count() const {
    std::size_t count = 0;
    for (const WaitNode* n = head_; n != nullptr; n = n->next) {
      if (n->active) {
        ++count;
      }
    }
    return count;
  }

 private:
  struct WaitNode {
    std::coroutine_handle<> handle;
    WaitNode* prev = nullptr;
    WaitNode* next = nullptr;
    bool linked = false;
    bool active = true;
    bool signaled = false;
  };

  void Link(WaitNode* n) {
    n->linked = true;
    n->prev = tail_;
    n->next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = n;
    } else {
      head_ = n;
    }
    tail_ = n;
  }

  void UnlinkIfLinked(WaitNode* n) noexcept {
    if (!n->linked) {
      return;
    }
    n->linked = false;
    if (n->prev != nullptr) {
      n->prev->next = n->next;
    } else {
      head_ = n->next;
    }
    if (n->next != nullptr) {
      n->next->prev = n->prev;
    } else {
      tail_ = n->prev;
    }
    n->prev = n->next = nullptr;
  }

  void WakeNode(WaitNode& node) {
    if (!node.active) {
      return;
    }
    node.active = false;
    node.signaled = true;
    exec_.ScheduleAt(exec_.now(), node.handle);
  }

  Executor& exec_;
  WaitNode* head_ = nullptr;  // FIFO: head is the oldest waiter
  WaitNode* tail_ = nullptr;
};

// Counting semaphore with FIFO wakeup order.
class Semaphore {
 public:
  Semaphore(Executor& exec, std::size_t initial) : exec_(exec), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto Acquire() {
    struct Awaiter {
      Semaphore* sem;
      bool await_ready() const noexcept {
        if (sem->count_ > 0 && sem->waiters_.empty()) {
          --sem->count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { sem->waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void Release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      exec_.ScheduleAt(exec_.now(), h);
      return;
    }
    ++count_;
  }

  std::size_t available() const { return count_; }

 private:
  Executor& exec_;
  std::size_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// A serially-occupied resource (a memory controller, an interconnect link, a
// NIC DMA engine). Transactions reserve `service` cycles of exclusive use;
// arrivals while busy queue FIFO. Returns the completion time, so callers
// co_await exec.Delay(completion - now) to model the queueing + service delay.
class FifoResource {
 public:
  FifoResource() = default;

  Cycles ReserveAt(Cycles now, Cycles service) {
    Cycles start = now > busy_until_ ? now : busy_until_;
    busy_until_ = start + service;
    return busy_until_;
  }

 private:
  Cycles busy_until_ = 0;
};

}  // namespace mk::sim

#endif  // MK_SIM_EVENT_H_
