// Hierarchical timer wheel for connection-scale timers (the lwIP/Linux
// pattern ROADMAP item 5 names as the exemplar).
//
// A serving stack at 100k+ concurrent connections arms and cancels a timer
// on nearly every segment (retransmit deadlines, idle timeouts, TIME_WAIT
// reaps, handshake expiries). The executor's event queue cannot carry those
// directly: sim::Event::WaitTimeout heap-allocates a shared node per wait and
// its timer is uncancellable, so 100k idle connections would mean 100k
// un-reclaimable pending events. The wheel gives O(1) Schedule/Cancel with
// freelisted nodes and schedules *executor* events only at ticks where a
// timer is actually due — an idle wheel arms nothing, and a cancelled timer
// leaves at most one stale no-op wake behind.
//
// Layout: level 0 is 256 slots of one tick each (tick = 2^kTickShift =
// 4096 cycles); levels 1..3 are 64 slots each covering successively
// 256-tick, 16384-tick, and 1M-tick ranges, for a total span of 2^26 ticks
// (~275 G cycles — further deadlines are clamped and re-cascade). Each
// level keeps an occupancy bitmap so finding the next due tick skips idle
// slots; crossing a level boundary cascades that slot's timers down by
// their exact expiry tick. Timers therefore fire at tick granularity: a
// deadline rounds up to the next tick boundary. That includes every TCP
// connect deadline (NetStack::TcpConnect), so the tick is also the rounding
// of a bounded connect's give-up time. Expiry order is deterministic —
// slots fire in tick order and within a slot in scheduling order (cascades
// preserve relative order).
//
// The wheel never fires a callback synchronously from Schedule or Cancel;
// callbacks run from the executor's event loop at the due tick's cycle, so
// they may freely schedule and cancel timers (including their own slot's).
#ifndef MK_NET_TIMER_WHEEL_H_
#define MK_NET_TIMER_WHEEL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/executor.h"
#include "sim/types.h"

namespace mk::net {

using sim::Cycles;

class TimerWheel {
 public:
  // Opaque timer handle: 0 is "no timer". Generation-checked, so a stale id
  // (already fired or cancelled, slot since reused) cancels nothing.
  using TimerId = std::uint64_t;
  static constexpr TimerId kNoTimer = 0;

  // The tick is 2^kTickShift = 4096 cycles: it resolves the stack's timers
  // (RTOs and idle timeouts are 10^5+ cycles) with slack while keeping the
  // wheel span near 10^11 cycles.
  static constexpr unsigned kTickShift = 12;

  explicit TimerWheel(sim::Executor& exec) : exec_(exec) {}
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Arms `fn` to run `delay` cycles from now, rounded up to the next tick
  // boundary (a zero delay still waits for the next tick: callbacks never run
  // inside the caller's stack frame).
  TimerId Schedule(Cycles delay, std::function<void()> fn);

  // Disarms a pending timer. Returns false if the id is stale (the timer
  // already fired or was already cancelled).
  bool Cancel(TimerId id);

  static constexpr Cycles tick_cycles() { return Cycles{1} << kTickShift; }

  // --- Accounting (leak gates assert armed() == 0 after a drained run) ---
  std::size_t armed() const { return armed_; }
  std::uint64_t scheduled() const { return scheduled_; }
  std::uint64_t fired() const { return fired_; }
  std::uint64_t cancelled() const { return cancelled_; }
  std::uint64_t cascades() const { return cascades_; }

 private:
  static constexpr unsigned kL0Bits = 8;   // 256 one-tick slots
  static constexpr unsigned kLxBits = 6;   // 64 slots per upper level
  static constexpr std::size_t kL0Slots = std::size_t{1} << kL0Bits;
  static constexpr std::size_t kLxSlots = std::size_t{1} << kLxBits;
  static constexpr int kLevels = 4;
  // Tick shift of each level's slot width: L0 slots are 1 tick, L1 slots
  // 2^8 ticks, L2 2^14, L3 2^20; the wheel spans 2^26 ticks.
  static constexpr unsigned kLevelShift[kLevels] = {0, 8, 14, 20};
  static constexpr std::uint64_t kSpanTicks = std::uint64_t{1} << 26;
  static constexpr std::uint64_t kNoDue = ~std::uint64_t{0};

  struct Node {
    std::function<void()> fn;
    std::uint64_t expiry_tick = 0;
    std::uint32_t gen = 1;
    std::uint32_t index = 0;   // position in pool_, fixed for the node's life
    Node* prev = nullptr;
    Node* next = nullptr;
    std::int8_t level = -1;    // -1 = not linked
    std::int16_t slot = 0;
  };

  void Link(Node* n);              // places by expiry_tick vs current_tick_
  void Unlink(Node* n);
  void FreeNode(Node* n);
  std::uint64_t NextDueTick() const;
  void AdvanceTo(std::uint64_t target_tick);
  void CascadeSlot(int level, std::size_t slot);
  void FireSlot(std::size_t slot);
  void ArmWake();
  void OnWake(std::uint64_t seq);

  sim::Executor& exec_;
  std::uint64_t current_tick_ = 0;  // last processed tick
  // Slot lists: head/tail per slot, level-major. L0 first, then L1..L3.
  Node* head_[kL0Slots + 3 * kLxSlots] = {};
  Node* tail_[kL0Slots + 3 * kLxSlots] = {};
  std::uint64_t occ_l0_[kL0Slots / 64] = {};
  std::uint64_t occ_up_[3] = {};  // one word per upper level
  std::deque<Node> pool_;         // stable addresses; freelist below
  std::vector<Node*> free_;
  std::size_t armed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t cascades_ = 0;
  // Pending executor wake: armed at the earliest due tick. Superseded wakes
  // (a new earlier timer re-armed) and drained wakes (every timer cancelled)
  // fire as no-ops, checked by sequence number.
  bool wake_pending_ = false;
  Cycles wake_at_ = 0;
  std::uint64_t wake_seq_ = 0;
};

}  // namespace mk::net

#endif  // MK_NET_TIMER_WHEEL_H_
