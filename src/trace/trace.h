// mk::trace — cycle-accurate, zero-allocation execution tracing.
//
// The simulator's observability layer: instrumented code emits compact POD
// records {cycle, core, category, event-id, 2×u64 args, flow-id} into
// per-core fixed-capacity ring buffers. Tracing is an *observer*, never a
// perturbation:
//
//   * zero simulated cycles — a trace point only reads the clock and writes
//     host memory; it can never schedule an event, charge a cost, or touch
//     simulated state, so every run is bit-identical with tracing on, off,
//     or compiled out (pinned by tests/determinism_test.cc);
//   * zero steady-state heap allocations — rings are allocated once per core
//     on first touch and then overwritten in place (newest records win,
//     drops are counted), so tracing a hot loop costs a mask test plus a
//     40-byte store (pinned by bench/microbench.cc);
//   * compile-time removal — `MK_TRACE_ENABLED` is a category bitmask; a
//     category whose bit is clear compiles to nothing at every trace point
//     (build with -DMK_TRACE_ENABLED=0 to strip the subsystem entirely).
//
// Cross-core causality is captured by flow ids: a URPC message's send on
// core A and its delivery on core B carry the same flow id, as do an IPI's
// send and receipt and a shootdown's per-replica TLB invalidations. The
// sinks in trace/export.h turn the rings into a Perfetto/Chrome JSON trace
// (one track per core, flow arrows between them) or a per-category text
// summary cross-checked against hw::PerfCounters.
#ifndef MK_TRACE_TRACE_H_
#define MK_TRACE_TRACE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/types.h"

// Compile-time category mask: a trace point whose category bit is clear is
// removed entirely (no branch, no argument use). Defaults to everything.
#ifndef MK_TRACE_ENABLED
#define MK_TRACE_ENABLED 0xffffffffu
#endif

namespace mk::trace {

// Event categories, one bit each in the runtime and compile-time masks.
enum class Category : std::uint8_t {
  kExec,       // executor dispatch batches
  kCoherence,  // cache misses, cache-to-cache transfers
  kIpi,        // inter-processor interrupt send/receive
  kTlb,        // TLB invalidations and flushes
  kUrpc,       // channel send / receive / block / wake
  kKernel,     // syscall, trap, LRPC, upcall paths
  kMonitor,    // collectives, 2PC phases, capability ops
  kNet,        // NIC DMA, interrupts, driver rings
  kFault,      // injected faults and recovery actions (mk::fault)
  kRecover,    // membership view changes and failover actions (mk::recover)
  kConn,       // TCP connection lifecycle (handshake, cookies, evict, timeout)
  kNumCategories,
};

inline constexpr std::size_t kNumCategories =
    static_cast<std::size_t>(Category::kNumCategories);

constexpr std::uint32_t CategoryBit(Category c) {
  return std::uint32_t{1} << static_cast<unsigned>(c);
}

inline constexpr std::uint32_t kAllCategories =
    (std::uint32_t{1} << kNumCategories) - 1;

inline constexpr std::uint32_t kCompiledCategories = MK_TRACE_ENABLED;

const char* CategoryName(Category c);

// Parses a comma-separated category list ("ipi,urpc,tlb", or "all") into a
// mask. Returns false on an unknown name (leaving *mask unspecified).
bool ParseCategoryList(const std::string& list, std::uint32_t* mask);

// Event identities. The category is fixed at the emit site; the id selects
// the name and the exporter's rendering of the args.
enum class EventId : std::uint8_t {
  kExecCycle,      // arg0 = events dispatched at this cycle
  kCohMiss,        // arg0 = line address, arg1 = latency charged
  kCohC2C,         // arg0 = line address, arg1 = supplying core
  kIpiSend,        // arg0 = destination core, arg1 = vector
  kIpiRecv,        // arg0 = source core, arg1 = vector
  kTlbInvalidate,  // arg0 = vaddr
  kTlbFlush,       // arg0 = entries dropped
  kTlbShootdown,   // flow endpoints of a shootdown wave; arg0 = vaddr
  kUrpcSend,       // span; arg0 = message tag
  kUrpcRecv,       // span; arg0 = message tag
  kUrpcBlock,      // receiver exhausted its poll window and blocked
  kUrpcWake,       // sender posted a wake-up IPI for a blocked receiver
  kSyscall,        // span
  kTrap,           // span
  kLrpcCall,       // span; arg0 = endpoint
  kLrpcDeliver,    // span; arg0 = endpoint
  kUpcall,         // span; wake-up delivery (trap + context switch)
  kMonCollective,  // span; arg0 = op id, initiator side
  kMon2pcPrepare,  // span; arg0 = op id
  kMon2pcCommit,   // span; arg0 = op id
  kMon2pcAbort,    // span; arg0 = op id
  kMonHandleOp,    // arg0 = op id, arg1 = OpKind
  kCapPrepare,     // arg0 = op id, arg1 = vote
  kCapCommit,      // arg0 = op id
  kCapAbort,       // arg0 = op id
  kCapTransfer,    // arg0 = op id
  kNetRxWire,      // arg0 = frame bytes
  kNetRxPop,       // span; arg0 = frame bytes
  kNetTxPush,      // span; arg0 = frame bytes
  kNetTxWire,      // arg0 = frame bytes
  kNetIrq,         // RX interrupt raised
  kFaultCoreHalt,       // arg0 = halted core (first observation)
  kFaultIpiDrop,        // arg0 = destination core, arg1 = vector
  kFaultIpiDelay,       // arg0 = destination core, arg1 = extra cycles
  kFaultFrameDrop,      // arg0 = frame bytes (RX or TX per arg1: 0=rx, 1=tx)
  kFaultFrameCorrupt,   // arg0 = frame bytes
  kFaultLinkSpike,      // arg0 = extra cycles charged
  kFault2pcTimeout,     // arg0 = op id, arg1 = phase attempt
  kFaultExcludeCore,    // arg0 = excluded core
  kFaultTcpRetransmit,  // arg0 = seq, arg1 = retransmission number
  kFaultNsEvict,        // arg0 = service id, arg1 = dead owner core
  kRecoverViewPropose,  // arg0 = proposed epoch, arg1 = dead core
  kRecoverViewCommit,   // arg0 = committed epoch, arg1 = live-core count
  kRecoverResteer,      // arg0 = dead queue, arg1 = RETA slots rewritten
  kRecoverFlowAdopt,    // arg0 = adopting queue, arg1 = flow hash
  kRecoverDbRepoint,    // arg0 = dead replica shard, arg1 = new replica shard
  kRecoverDbRespawn,    // arg0 = replaced shard, arg1 = spare db core
  kRecoverShed,         // arg0 = shed cause (0=queue-full, 1=deadline, 2=progress)
  kConnSynRcvd,         // half-open created; arg0 = remote ip, arg1 = remote port
  kConnEstablished,     // arg0 = remote ip, arg1 = remote port
  kConnCookieSent,      // stateless SYN-ACK; arg0 = remote ip, arg1 = cookie ISN
  kConnCookieAccept,    // cookie ACK validated; arg0 = remote ip, arg1 = cookie ISN
  kConnClose,           // conn left the table; arg0 = cause (net::CloseCause)
  kConnTimeWait,        // active close parked; arg0 = remote ip, arg1 = remote port
  kConnEvict,           // forced out; arg0 = cause (0=half-open expiry, 1=abandoned)
  kConnTimeout,         // deadline fired; arg0 = kind (0=connect, 1=idle, 2=progress)
  kNumEvents,
};

inline constexpr std::size_t kNumEvents = static_cast<std::size_t>(EventId::kNumEvents);

const char* EventName(EventId e);

// How the exporter renders a record. Span records carry their duration in
// arg1 (cycle = span start). Flow records are the endpoints of a cross-core
// arrow; paired endpoints carry the same flow id.
enum class Phase : std::uint8_t {
  kInstant,
  kSpan,         // arg1 = duration
  kFlowOut,      // instant, flow origin
  kFlowIn,       // instant, flow destination
  kSpanFlowOut,  // span (arg1 = duration) that originates a flow
  kSpanFlowIn,   // span (arg1 = duration) that terminates a flow
};

// Flow-id namespaces: the top byte keeps ids from different subsystems from
// colliding in one trace.
inline constexpr std::uint64_t kFlowIpi = std::uint64_t{1} << 56;
inline constexpr std::uint64_t kFlowUrpc = std::uint64_t{2} << 56;
inline constexpr std::uint64_t kFlowNet = std::uint64_t{3} << 56;
inline constexpr std::uint64_t kFlowShootdown = std::uint64_t{4} << 56;

// One trace record. POD, fixed size, no ownership — rings copy these in
// place. `run` labels which Tracer::BeginRun scope the record belongs to
// (benches re-run workloads on fresh executors whose clocks restart at 0;
// the exporter gives each run its own Perfetto process group).
struct Record {
  sim::Cycles cycle = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint64_t flow = 0;
  std::uint16_t core = 0;
  std::uint16_t run = 0;
  Category category = Category::kExec;
  EventId event = EventId::kExecCycle;
  Phase phase = Phase::kInstant;
  std::uint8_t reserved = 0;
};
static_assert(sizeof(Record) == 40, "compact POD record");
static_assert(std::is_trivially_copyable_v<Record>);

// Track id used by the executor itself (it has no core); exporters render it
// as its own named track.
inline constexpr std::uint16_t kExecutorTrack = 255;

// Per-core fixed-capacity overwrite-oldest ring plus exact per-category /
// per-event totals (kept at append time, so summaries stay exact even after
// the ring wraps).
//
// Thread model under the parallel engine (sim/parallel.h): each engine
// domain emits on its own disjoint track range (the engine publishes a
// per-thread track offset that Emit() folds into Record::core), so every
// ring has exactly one writer. The ring table is pre-sized to the full
// offset range — no slot is ever created or moved concurrently — and the
// exact totals are relaxed atomics (counters, not synchronization).
// Snapshots and summaries run after the engine joins its workers.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 14;
  // Ring-table slots reserved up front: sim::kMaxDomains (64) domains of 512
  // tracks each. Slots are 8-byte pointers until a track is touched.
  static constexpr std::size_t kPresizedTracks = std::size_t{1} << 15;

  explicit Tracer(std::size_t capacity_per_core = kDefaultCapacity,
                  std::uint32_t mask = kAllCategories);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  // Process-wide active tracer (the simulator is single-threaded by design).
  // Installing a second tracer over an active one is an error; destruction
  // uninstalls automatically.
  void Install();
  void Uninstall();
  static Tracer* active();

  std::uint32_t mask() const { return mask_; }
  void set_mask(std::uint32_t m) { mask_ = m; }

  // Opens a new labeled run scope; subsequent records are stamped with its
  // index. Useful when one session traces several independent executors.
  std::uint16_t BeginRun(std::string name);
  std::uint16_t current_run() const { return current_run_; }
  const std::vector<std::string>& run_names() const { return run_names_; }

  // Appends `r` to its core's ring. Zero heap allocations once the core's
  // ring exists (first touch allocates it). Safe from multiple engine
  // workers as long as each track has one writer (the engine's per-domain
  // track offsets guarantee this).
  void Append(const Record& r) {
    Ring* ring = r.core < rings_.size() ? rings_[r.core].get() : nullptr;
    if (ring == nullptr) {
      ring = &GrowRing(r.core);
    }
    ring->records[ring->writes % capacity_] = r;
    ++ring->writes;
    event_count_[static_cast<std::size_t>(r.event)].fetch_add(1, std::memory_order_relaxed);
    auto cat = static_cast<std::size_t>(r.category);
    category_count_[cat].fetch_add(1, std::memory_order_relaxed);
    if (r.phase == Phase::kSpan || r.phase == Phase::kSpanFlowOut ||
        r.phase == Phase::kSpanFlowIn) {
      category_cycles_[cat].fetch_add(r.arg1, std::memory_order_relaxed);
    }
  }

  std::size_t capacity_per_core() const { return capacity_; }

  // Exact totals (independent of ring wraparound).
  std::uint64_t event_count(EventId e) const {
    return event_count_[static_cast<std::size_t>(e)].load(std::memory_order_relaxed);
  }
  std::uint64_t category_count(Category c) const {
    return category_count_[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  }
  std::uint64_t category_cycles(Category c) const {
    return category_cycles_[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  }
  std::uint64_t total_records() const;

  // Records lost to ring wraparound (oldest-first) on `core` / overall.
  std::uint64_t dropped(std::uint16_t core) const;
  std::uint64_t total_dropped() const;

  // Cores (track ids) that have at least one record.
  std::vector<std::uint16_t> active_tracks() const;

  // The retained records, merged across cores, stably sorted by cycle.
  std::vector<Record> Snapshot() const;

 private:
  struct Ring {
    std::unique_ptr<Record[]> records;
    std::uint64_t writes = 0;
  };

  Ring& GrowRing(std::uint16_t core);

  std::size_t capacity_;
  std::uint32_t mask_;
  std::uint16_t current_run_ = 0;
  bool installed_ = false;
  std::vector<std::string> run_names_;
  std::vector<std::unique_ptr<Ring>> rings_;  // pre-sized; slots fill on first touch
  std::array<std::atomic<std::uint64_t>, kNumEvents> event_count_{};
  std::array<std::atomic<std::uint64_t>, kNumCategories> category_count_{};
  std::array<std::atomic<std::uint64_t>, kNumCategories> category_cycles_{};
};

namespace internal {
// Defined in trace.cc; read through Tracer::active() / the emit fast path.
extern Tracer* g_active;
// Folded into Record::core by Emit(). The parallel engine sets it to
// domain * sim::ParallelEngine::kTrackStride around each domain's run/drain
// phase, giving every domain a disjoint track range (and thus single-writer
// rings) without any emit site knowing about domains. 0 everywhere else, so
// single-threaded traces are unchanged.
inline thread_local std::uint16_t tls_track_offset = 0;
}  // namespace internal

inline Tracer* Tracer::active() { return internal::g_active; }

// The trace point. Category is a template parameter so a compiled-out
// category vanishes (if constexpr), and an enabled one costs one pointer
// test plus one mask test before touching the ring.
template <Category C>
[[gnu::always_inline]] inline void Emit(EventId event, sim::Cycles cycle, int core,
                                        std::uint64_t arg0 = 0, std::uint64_t arg1 = 0,
                                        std::uint64_t flow = 0,
                                        Phase phase = Phase::kInstant) {
  if constexpr ((kCompiledCategories & CategoryBit(C)) != 0) {
    Tracer* t = internal::g_active;
    if (t == nullptr || (t->mask() & CategoryBit(C)) == 0) {
      return;
    }
    Record r;
    r.cycle = cycle;
    r.arg0 = arg0;
    r.arg1 = arg1;
    r.flow = flow;
    r.core = static_cast<std::uint16_t>(core + internal::tls_track_offset);
    r.run = t->current_run();
    r.category = C;
    r.event = event;
    r.phase = phase;
    t->Append(r);
  } else {
    (void)event;
    (void)cycle;
    (void)core;
    (void)arg0;
    (void)arg1;
    (void)flow;
    (void)phase;
  }
}

// Span convenience: record covers [start, end) and renders as a slice.
template <Category C>
[[gnu::always_inline]] inline void EmitSpan(EventId event, sim::Cycles start,
                                            sim::Cycles end, int core,
                                            std::uint64_t arg0 = 0, std::uint64_t flow = 0,
                                            Phase phase = Phase::kSpan) {
  Emit<C>(event, start, core, arg0, end - start, flow, phase);
}

// True if any tracer is installed and has `c` enabled — for the rare site
// that wants to skip computing emit arguments.
template <Category C>
[[gnu::always_inline]] inline bool Enabled() {
  if constexpr ((kCompiledCategories & CategoryBit(C)) != 0) {
    Tracer* t = internal::g_active;
    return t != nullptr && (t->mask() & CategoryBit(C)) != 0;
  } else {
    return false;
  }
}

}  // namespace mk::trace

#endif  // MK_TRACE_TRACE_H_
