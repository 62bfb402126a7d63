// Hashed connection table: open addressing over the TCP 4-tuple, the "PCB
// hashing at scale" half of ROADMAP item 5 (lwIP keeps PCBs on a linked list,
// which is O(n) per segment; at 100k+ concurrent connections the demux must
// be O(1)).
//
// Design:
//   * keys pack (remote ip, remote port, local port) into 64 bits and are
//     scrambled by a fixed 64-bit mixer, so probe sequences are independent
//     of address allocation patterns;
//   * linear probing with tombstones: Erase marks the slot dead so later
//     probes keep walking; Insert reuses the first tombstone on its probe
//     path. The table rehashes by doubling when live + dead slots exceed 3/4
//     of capacity (size-classed growth: 1k → 2k → ... → 256k+ slots), which
//     also sweeps tombstones;
//   * the table owns its values (std::unique_ptr<Conn>); pointers returned by
//     Find/Insert stay stable across rehashes because only the slot array
//     moves, never the pointed-to connection;
//   * exact accounting — live(), tombstones(), peak_live(), inserts(),
//     erases() — so churn tests can assert zero leaks from the table's own
//     books (inserts - erases == live).
//
// Deterministic: no randomized seeding; iteration order is never exposed.
#ifndef MK_NET_CONN_TABLE_H_
#define MK_NET_CONN_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace mk::net {

// Packs a TCP flow identity into the table's 64-bit key. The local IP is
// implicit (one NetStack = one address).
constexpr std::uint64_t ConnKey(std::uint32_t remote_ip, std::uint16_t remote_port,
                                std::uint16_t local_port) {
  return (static_cast<std::uint64_t>(remote_ip) << 32) |
         (static_cast<std::uint64_t>(remote_port) << 16) |
         static_cast<std::uint64_t>(local_port);
}

template <typename Conn>
class ConnTable {
 public:
  ConnTable() { slots_.resize(kInitialSlots); }
  ConnTable(const ConnTable&) = delete;
  ConnTable& operator=(const ConnTable&) = delete;

  // Inserts `conn` under `key`; returns the stable pointer. A key already
  // present is an invariant violation upstream (the stack never double-
  // inserts a 4-tuple) — the old value is replaced and the pointer returned,
  // counted as an insert over an erase.
  Conn* Insert(std::uint64_t key, std::unique_ptr<Conn> conn) {
    MaybeGrow();
    std::size_t mask = slots_.size() - 1;
    std::size_t i = Mix(key) & mask;
    std::size_t first_dead = kNpos;
    for (std::size_t probes = 0; probes <= mask; ++probes, i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.state == State::kEmpty) {
        Slot& target = first_dead == kNpos ? s : slots_[first_dead];
        if (first_dead != kNpos) {
          --tombstones_;
        }
        target.key = key;
        target.conn = std::move(conn);
        target.state = State::kLive;
        ++live_;
        ++inserts_;
        if (live_ > peak_live_) {
          peak_live_ = live_;
        }
        if (probes > max_probe_) {
          max_probe_ = probes;
        }
        return target.conn.get();
      }
      if (s.state == State::kDead) {
        if (first_dead == kNpos) {
          first_dead = i;
        }
        continue;
      }
      if (s.key == key) {
        s.conn = std::move(conn);  // replace (should not happen; see above)
        ++inserts_;
        ++erases_;
        return s.conn.get();
      }
    }
    // Probed every slot without finding kEmpty: the path was all live/dead.
    // A tombstone on the path must exist (load factor < 1 is maintained).
    Slot& target = slots_[first_dead];
    --tombstones_;
    target.key = key;
    target.conn = std::move(conn);
    target.state = State::kLive;
    ++live_;
    ++inserts_;
    if (live_ > peak_live_) {
      peak_live_ = live_;
    }
    return target.conn.get();
  }

  Conn* Find(std::uint64_t key) const {
    std::size_t mask = slots_.size() - 1;
    std::size_t i = Mix(key) & mask;
    for (std::size_t probes = 0; probes <= mask; ++probes, i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.state == State::kEmpty) {
        return nullptr;
      }
      if (s.state == State::kLive && s.key == key) {
        return s.conn.get();
      }
    }
    return nullptr;
  }

  // Removes `key`, returning ownership of the connection (empty if absent).
  // The slot becomes a tombstone so unrelated probe chains stay intact.
  std::unique_ptr<Conn> Erase(std::uint64_t key) {
    std::size_t mask = slots_.size() - 1;
    std::size_t i = Mix(key) & mask;
    for (std::size_t probes = 0; probes <= mask; ++probes, i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.state == State::kEmpty) {
        return nullptr;
      }
      if (s.state == State::kLive && s.key == key) {
        s.state = State::kDead;
        ++tombstones_;
        --live_;
        ++erases_;
        return std::move(s.conn);
      }
    }
    return nullptr;
  }

  // --- Accounting (the churn gates read these) ---
  std::size_t live() const { return live_; }
  std::size_t tombstones() const { return tombstones_; }
  std::size_t capacity() const { return slots_.size(); }
  std::size_t peak_live() const { return peak_live_; }
  std::uint64_t inserts() const { return inserts_; }
  std::uint64_t erases() const { return erases_; }
  std::uint64_t rehashes() const { return rehashes_; }
  std::size_t max_probe() const { return max_probe_; }

 private:
  enum class State : std::uint8_t { kEmpty, kLive, kDead };
  struct Slot {
    std::uint64_t key = 0;
    std::unique_ptr<Conn> conn;
    State state = State::kEmpty;
  };
  static constexpr std::size_t kNpos = ~std::size_t{0};
  // The first size class; MaybeGrow doubles from here.
  static constexpr std::size_t kInitialSlots = 1024;

  // splitmix64 finalizer: full-avalanche 64-bit mix, cheap and fixed.
  static std::uint64_t Mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  void MaybeGrow() {
    if ((live_ + tombstones_) * 4 < slots_.size() * 3) {
      return;
    }
    // Double while the *live* load would still exceed half the new table, so
    // a tombstone-heavy table can rehash in place at the same size class.
    std::size_t new_cap = slots_.size();
    while (live_ * 2 >= new_cap) {
      new_cap <<= 1;
    }
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_cap);
    tombstones_ = 0;
    max_probe_ = 0;
    ++rehashes_;
    std::size_t mask = new_cap - 1;
    for (Slot& s : old) {
      if (s.state != State::kLive) {
        continue;
      }
      std::size_t i = Mix(s.key) & mask;
      std::size_t probes = 0;
      while (slots_[i].state != State::kEmpty) {
        i = (i + 1) & mask;
        ++probes;
      }
      slots_[i].key = s.key;
      slots_[i].conn = std::move(s.conn);
      slots_[i].state = State::kLive;
      if (probes > max_probe_) {
        max_probe_ = probes;
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::size_t peak_live_ = 0;
  std::size_t max_probe_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t erases_ = 0;
  std::uint64_t rehashes_ = 0;
};

}  // namespace mk::net

#endif  // MK_NET_CONN_TABLE_H_
