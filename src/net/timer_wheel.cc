#include "net/timer_wheel.h"

#include <cassert>

namespace mk::net {

constexpr unsigned TimerWheel::kLevelShift[TimerWheel::kLevels];

TimerWheel::TimerId TimerWheel::Schedule(Cycles delay, std::function<void()> fn) {
  if (armed_ == 0) {
    // Nothing linked: safe to resynchronize the wheel origin so placement
    // deltas stay small after long idle stretches.
    current_tick_ = exec_.now() >> kTickShift;
  }
  // Round the deadline UP to a tick boundary: truncating would place a
  // deadline of (k ticks + epsilon) on tick k and fire it epsilon early.
  const Cycles deadline = exec_.now() + delay;
  std::uint64_t expiry = (deadline + tick_cycles() - 1) >> kTickShift;
  if (expiry <= current_tick_) {
    expiry = current_tick_ + 1;  // never fire inside the caller's frame
  }
  Node* n;
  if (!free_.empty()) {
    n = free_.back();
    free_.pop_back();
  } else {
    pool_.emplace_back();
    n = &pool_.back();
    n->index = static_cast<std::uint32_t>(pool_.size() - 1);
  }
  n->fn = std::move(fn);
  n->expiry_tick = expiry;
  Link(n);
  ++armed_;
  ++scheduled_;
  ArmWake();
  return (static_cast<std::uint64_t>(n->gen) << 32) | (n->index + 1);
}

bool TimerWheel::Cancel(TimerId id) {
  if (id == kNoTimer) {
    return false;
  }
  std::uint32_t index = static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (index >= pool_.size()) {
    return false;
  }
  Node* n = &pool_[index];
  if (n->gen != gen || n->level < 0) {
    return false;  // already fired, already cancelled, or slot reused
  }
  Unlink(n);
  FreeNode(n);
  --armed_;
  ++cancelled_;
  // A wake armed for this timer's tick fires as a no-op; nothing to disarm.
  return true;
}

void TimerWheel::Link(Node* n) {
  std::uint64_t delta = n->expiry_tick - current_tick_;
  // Placement uses a clamped tick for deadlines past the wheel span — the
  // true expiry is kept on the node, so the timer re-cascades until it fits.
  std::uint64_t place = n->expiry_tick;
  if (delta >= kSpanTicks) {
    place = current_tick_ + kSpanTicks - 1;
    delta = kSpanTicks - 1;
  }
  int level;
  std::size_t slot;
  std::size_t base;
  if (delta < (std::uint64_t{1} << kLevelShift[1])) {
    level = 0;
    slot = static_cast<std::size_t>(place & (kL0Slots - 1));
    base = 0;
    occ_l0_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  } else {
    level = delta < (std::uint64_t{1} << kLevelShift[2])   ? 1
            : delta < (std::uint64_t{1} << kLevelShift[3]) ? 2
                                                           : 3;
    slot = static_cast<std::size_t>((place >> kLevelShift[level]) & (kLxSlots - 1));
    base = kL0Slots + static_cast<std::size_t>(level - 1) * kLxSlots;
    occ_up_[level - 1] |= std::uint64_t{1} << slot;
  }
  std::size_t li = base + slot;
  n->level = static_cast<std::int8_t>(level);
  n->slot = static_cast<std::int16_t>(slot);
  n->prev = tail_[li];
  n->next = nullptr;
  if (tail_[li] != nullptr) {
    tail_[li]->next = n;
  } else {
    head_[li] = n;
  }
  tail_[li] = n;
}

void TimerWheel::Unlink(Node* n) {
  assert(n->level >= 0);
  std::size_t slot = static_cast<std::size_t>(n->slot);
  std::size_t li = n->level == 0
                       ? slot
                       : kL0Slots + static_cast<std::size_t>(n->level - 1) * kLxSlots +
                             slot;
  if (n->prev != nullptr) {
    n->prev->next = n->next;
  } else {
    head_[li] = n->next;
  }
  if (n->next != nullptr) {
    n->next->prev = n->prev;
  } else {
    tail_[li] = n->prev;
  }
  if (head_[li] == nullptr) {
    if (n->level == 0) {
      occ_l0_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    } else {
      occ_up_[n->level - 1] &= ~(std::uint64_t{1} << slot);
    }
  }
  n->prev = n->next = nullptr;
  n->level = -1;
}

void TimerWheel::FreeNode(Node* n) {
  n->fn = nullptr;
  ++n->gen;  // invalidate outstanding ids
  free_.push_back(n);
}

std::uint64_t TimerWheel::NextDueTick() const {
  std::uint64_t best = kNoDue;
  // L0: exact due ticks in (current_tick_, current_tick_ + 256]. Scan the
  // occupancy bitmap from the slot after current, wrapping once.
  {
    std::size_t start = static_cast<std::size_t>((current_tick_ + 1) & (kL0Slots - 1));
    for (std::size_t k = 0; k < kL0Slots; ++k) {
      std::size_t slot = (start + k) & (kL0Slots - 1);
      if ((occ_l0_[slot >> 6] >> (slot & 63)) & 1) {
        best = current_tick_ + 1 + k;
        break;
      }
      // Skip whole empty words when aligned.
      if ((slot & 63) == 0 && occ_l0_[slot >> 6] == 0 && k + 63 < kL0Slots) {
        k += 63;
      }
    }
  }
  // Upper levels: the due point is the start of the next occupied slot —
  // that's where the cascade (and any exact L0 fire it feeds) happens.
  for (int level = 1; level < kLevels; ++level) {
    std::uint64_t word = occ_up_[level - 1];
    if (word == 0) {
      continue;
    }
    std::uint64_t base = current_tick_ >> kLevelShift[level];
    for (std::uint64_t k = 1; k <= kLxSlots; ++k) {
      std::size_t slot = static_cast<std::size_t>((base + k) & (kLxSlots - 1));
      if ((word >> slot) & 1) {
        std::uint64_t due = (base + k) << kLevelShift[level];
        if (due < best) {
          best = due;
        }
        break;
      }
    }
  }
  return best;
}

void TimerWheel::AdvanceTo(std::uint64_t target_tick) {
  while (current_tick_ < target_tick) {
    std::uint64_t next = NextDueTick();
    if (next == kNoDue || next > target_tick) {
      current_tick_ = target_tick;
      return;
    }
    current_tick_ = next;
    // Cascade deepest-first at level boundaries, so a timer can fall through
    // several levels in one step and still land in its exact L0 slot.
    for (int level = kLevels - 1; level >= 1; --level) {
      if ((next & ((std::uint64_t{1} << kLevelShift[level]) - 1)) == 0) {
        CascadeSlot(level,
                    static_cast<std::size_t>((next >> kLevelShift[level]) &
                                             (kLxSlots - 1)));
      }
    }
    FireSlot(static_cast<std::size_t>(next & (kL0Slots - 1)));
  }
}

void TimerWheel::CascadeSlot(int level, std::size_t slot) {
  std::size_t li = kL0Slots + static_cast<std::size_t>(level - 1) * kLxSlots + slot;
  Node* n = head_[li];
  if (n == nullptr) {
    return;
  }
  head_[li] = tail_[li] = nullptr;
  occ_up_[level - 1] &= ~(std::uint64_t{1} << slot);
  while (n != nullptr) {
    Node* next = n->next;
    n->prev = n->next = nullptr;
    n->level = -1;
    Link(n);  // re-place by exact expiry relative to the new current_tick_
    ++cascades_;
    n = next;
  }
}

void TimerWheel::FireSlot(std::size_t slot) {
  // Every node in an L0 slot shares one expiry tick (the window is 256 ticks
  // wide and slots are expiry mod 256), so the whole list is due. Fire nodes
  // head-first, re-reading the head each time: a callback may cancel later
  // timers in this very slot or schedule new ones (a new same-slot timer is
  // 256 ticks out and links after current_tick_ advanced, so it cannot be
  // confused with a due node — its expiry differs and Link would have placed
  // it in L1).
  while (head_[slot] != nullptr && head_[slot]->expiry_tick == current_tick_) {
    Node* n = head_[slot];
    Unlink(n);
    --armed_;
    ++fired_;
    std::function<void()> fn = std::move(n->fn);
    FreeNode(n);
    fn();
  }
}

void TimerWheel::ArmWake() {
  if (armed_ == 0) {
    return;
  }
  std::uint64_t due = NextDueTick();
  assert(due != kNoDue);
  Cycles at = due << kTickShift;
  if (at < exec_.now()) {
    at = exec_.now();
  }
  if (wake_pending_ && wake_at_ <= at) {
    return;  // an earlier-or-equal wake is already in flight
  }
  wake_at_ = at;
  wake_pending_ = true;
  std::uint64_t seq = ++wake_seq_;
  exec_.CallAt(at, [this, seq] { OnWake(seq); });
}

void TimerWheel::OnWake(std::uint64_t seq) {
  if (seq != wake_seq_) {
    return;  // superseded by an earlier re-arm; that wake owns the advance
  }
  wake_pending_ = false;
  AdvanceTo(exec_.now() >> kTickShift);
  ArmWake();
}

}  // namespace mk::net
