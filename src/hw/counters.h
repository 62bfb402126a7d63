// Hardware performance counters: cache events per core and interconnect
// traffic per directed link (in 32-bit dwords, as the paper's Table 4).
#ifndef MK_HW_COUNTERS_H_
#define MK_HW_COUNTERS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mk::hw {

// The single source of truth for CoreCounters' fields. operator-, Total, and
// the field visitors all expand from this list, so adding a counter means
// adding exactly one line here.
#define MK_CORE_COUNTER_FIELDS(V) \
  V(loads)                        \
  V(stores)                       \
  V(cache_hits)                   \
  V(cache_misses)                 \
  V(c2c_transfers)                \
  V(dram_fetches)                 \
  V(invalidations_recv)           \
  V(tlb_invalidations)            \
  V(tlb_misses)                   \
  V(traps)                        \
  V(ipis_sent)                    \
  V(ipis_received)

struct CoreCounters {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;   // coherence misses (invalidation/first touch)
  std::uint64_t c2c_transfers = 0;  // misses satisfied cache-to-cache
  std::uint64_t dram_fetches = 0;   // misses satisfied from memory
  std::uint64_t invalidations_recv = 0;
  std::uint64_t tlb_invalidations = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t traps = 0;
  std::uint64_t ipis_sent = 0;
  std::uint64_t ipis_received = 0;

  // Invokes fn(this_field&, other_field) for every pair of counter fields.
  template <typename Fn>
  void ZipFields(const CoreCounters& other, Fn&& fn) {
#define MK_VISIT(field) fn(field, other.field);
    MK_CORE_COUNTER_FIELDS(MK_VISIT)
#undef MK_VISIT
  }

  CoreCounters operator-(const CoreCounters& o) const {
    CoreCounters r = *this;
    r.ZipFields(o, [](std::uint64_t& mine, std::uint64_t theirs) { mine -= theirs; });
    return r;
  }
};

namespace internal {
#define MK_VISIT(field) +1
inline constexpr std::size_t kCoreCounterFields = MK_CORE_COUNTER_FIELDS(MK_VISIT);
#undef MK_VISIT
}  // namespace internal

// A field added to the struct but not the X-macro (or vice versa) trips this.
static_assert(internal::kCoreCounterFields * sizeof(std::uint64_t) == sizeof(CoreCounters),
              "MK_CORE_COUNTER_FIELDS is out of sync with CoreCounters");

class PerfCounters {
 public:
  PerfCounters(int cores, int packages)
      : cores_(cores, CoreCounters{}),
        link_dwords_(packages, std::vector<std::uint64_t>(packages, 0)) {}

  CoreCounters& core(int c) { return cores_[c]; }
  const CoreCounters& core(int c) const { return cores_[c]; }

  void AddLinkDwords(int from_pkg, int to_pkg, std::uint64_t dwords) {
    link_dwords_[from_pkg][to_pkg] += dwords;
  }
  std::uint64_t link_dwords(int from_pkg, int to_pkg) const {
    return link_dwords_[from_pkg][to_pkg];
  }

  CoreCounters Total() const {
    CoreCounters t;
    for (const auto& c : cores_) {
      t.ZipFields(c, [](std::uint64_t& mine, std::uint64_t theirs) { mine += theirs; });
    }
    return t;
  }

  void Reset() {
    for (auto& c : cores_) {
      c = CoreCounters{};
    }
    for (auto& row : link_dwords_) {
      for (auto& v : row) {
        v = 0;
      }
    }
  }

 private:
  std::vector<CoreCounters> cores_;
  std::vector<std::vector<std::uint64_t>> link_dwords_;
};

}  // namespace mk::hw

#endif  // MK_HW_COUNTERS_H_
