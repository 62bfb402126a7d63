// mk::fault — deterministic, schedule-driven fault injection.
//
// The paper's central argument (§2) is that a multikernel *is* a distributed
// system; this module makes the reproduction inherit distributed-systems
// failure modes on demand. A FaultPlan is a declarative schedule of faults —
// fail-stop core halts, IPI drops and delays, NIC frame loss and corruption,
// interconnect latency spikes — and an Injector is the installed instance the
// hardware models consult at their injection points.
//
// Two properties mirror mk::trace:
//
//   * deterministic — every probabilistic fault draws from a per-(spec,
//     domain) sim::Rng stream keyed by sim::DeriveStreamSeed, so the same
//     plan and seeds produce a bit-identical run at any host thread count:
//     a domain's draws depend only on its own injection sequence, never on
//     what other domains consume or on host scheduling (pinned by
//     tests/determinism_test.cc). Under the parallel engine the firing cap
//     and stream apply independently per domain — each domain's world sees
//     the plan as its own; plain single-executor runs are domain 0 and
//     behave exactly as before;
//   * zero-cost when absent — with no Injector installed every injection
//     point is one null-pointer test, schedules no events, and charges no
//     cycles, so the paper benches stay byte-identical.
//
// Faults are injected by the *models* (hw::IpiFabric, net::SimNic,
// hw::CoherentMemory, net::CrossWire), which also emit the
// trace::Category::kFault instants — the sites know the core context; this
// module only answers queries. Everything else asks two questions, each in
// one place: "has this core halted?" (hw::Machine::Halted) and "is recovery
// armed, and how long may a wait last?" (recover::Armed, recover::Bound in
// recover/config.h).
#ifndef MK_FAULT_FAULT_H_
#define MK_FAULT_FAULT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <vector>

#include "sim/domain.h"
#include "sim/random.h"
#include "sim/types.h"

namespace mk::fault {

inline constexpr int kUnlimited = -1;

enum class FaultKind : std::uint8_t {
  kCoreHalt,      // fail-stop: core never runs again after `at`
  kIpiDrop,       // IPI charged at the sender but never delivered
  kIpiDelay,      // IPI wire latency inflated by `extra`
  kNicRxDrop,     // frame lost between wire and RX ring
  kNicRxCorrupt,  // frame bit-flipped between wire and RX ring
  kNicTxDrop,     // frame lost after TX DMA, before the wire
  kLinkDelay,     // cross-package interconnect transfers inflated by `extra`
  kWireDrop,      // cross-machine frame lost on a (src,dst) machine-pair wire
  kWireDelay,     // cross-machine wire latency inflated by `extra`
  kSynFlood,      // adversarial: one forged spoofed-source SYN per firing
  kSlowloris,     // adversarial: one slow-drip partial-request action per firing
  kConnChurn,     // adversarial: one open/close churn connection per firing
  kNumKinds,
};

inline constexpr std::size_t kNumKinds = static_cast<std::size_t>(FaultKind::kNumKinds);

const char* FaultKindName(FaultKind k);

// One scheduled fault. A spec is armed while `at <= now < until`, matches the
// injection site's endpoints (`a`/`b`, -1 = wildcard; for IPIs a = sender
// core, b = destination core; for kCoreHalt a = the core; for wire kinds a =
// source machine, b = destination machine), fires at most `count` times
// (kUnlimited = no cap), and — when probability < 1 — draws from its own
// seeded stream so plans compose without perturbing each other.
//
// `machine` scopes a spec to one engine domain (a "machine" under the
// parallel engine is exactly one domain): -1 matches every domain — the
// pre-rack behaviour, where each domain's world sees the plan as its own —
// while machine >= 0 makes the spec fire only for injection sites running in
// that domain. HaltMachine uses this to halt *all* cores of one machine
// without touching the same core ids on its rack peers.
struct FaultSpec {
  FaultKind kind = FaultKind::kCoreHalt;
  sim::Cycles at = 0;
  sim::Cycles until = sim::kForever;
  int a = -1;
  int b = -1;
  int machine = -1;
  int count = kUnlimited;
  sim::Cycles extra = 0;
  double probability = 1.0;
  std::uint64_t seed = 0;
};

// Declarative builder for a fault schedule. Plans are value types; the
// Injector copies the specs at construction.
class FaultPlan {
 public:
  // Fail-stop halt: `core` executes nothing at or after cycle `at`.
  FaultPlan& HaltCore(int core, sim::Cycles at);
  // Fail-stop halt of a whole machine: every core of engine domain `machine`
  // executes nothing at or after `at`; the other domains are untouched.
  FaultPlan& HaltMachine(int machine, sim::Cycles at);
  // Drop the next `count` IPIs from `from` to `to` (-1 = any) sent at/after `at`.
  FaultPlan& DropIpi(int from, int to, sim::Cycles at, int count = 1);
  // Inflate matching IPIs' wire latency by `extra` while armed.
  FaultPlan& DelayIpi(int from, int to, sim::Cycles extra, sim::Cycles at,
                      sim::Cycles until = sim::kForever);
  // Drop the next `count` RX frames arriving at/after `at`.
  FaultPlan& DropRxFrames(sim::Cycles at, int count = 1);
  // Drop the next `count` RX frames steered to a specific NIC queue (`a` is
  // the queue index for NIC kinds; multi-queue devices pass it at the site).
  FaultPlan& DropRxFramesOnQueue(int queue, sim::Cycles at, int count = 1);
  // Drop each RX frame with probability `rate` while armed (seeded stream).
  FaultPlan& RandomRxLoss(double rate, std::uint64_t seed, sim::Cycles at = 0,
                          sim::Cycles until = sim::kForever);
  // Corrupt the next `count` RX frames (payload bit flip; checksums catch it).
  FaultPlan& CorruptRxFrames(sim::Cycles at, int count = 1);
  // Drop the next `count` TX frames after DMA-out.
  FaultPlan& DropTxFrames(sim::Cycles at, int count = 1);
  // Drop each TX frame with probability `rate` while armed (seeded stream).
  FaultPlan& RandomTxLoss(double rate, std::uint64_t seed, sim::Cycles at = 0,
                          sim::Cycles until = sim::kForever);
  // Inflate cross-package interconnect transfers by `extra` while armed.
  FaultPlan& LinkSpike(sim::Cycles extra, sim::Cycles at, sim::Cycles until);
  // Drop the next `count` frames crossing the (src,dst) machine-pair wire
  // (net::CrossWire consults this in the source machine's domain; -1 = any).
  FaultPlan& DropWireFrames(int src_machine, int dst_machine, sim::Cycles at,
                            int count = 1);
  // Latency spike on the (src,dst) machine-pair wire: matching crossings are
  // delivered `extra` cycles late while armed. Delay only ever widens the
  // wire's conservative bound, so the engine's lookahead contract holds.
  FaultPlan& WireDelay(int src_machine, int dst_machine, sim::Cycles extra,
                       sim::Cycles at, sim::Cycles until = sim::kForever);
  // --- Adversarial traffic windows (ROADMAP item 5) ---
  //
  // Consumed by attack-load generator tasks in the serving benches (not by
  // the hardware models): a generator paces candidate attack actions and
  // performs one — a forged spoofed-source SYN, one slow-drip header
  // fragment, one open/close churn connection — per successful consumption,
  // so a plan's per-spec activation table counts exactly the attack units
  // that actually hit the server. `probability` thins the generator's pacing
  // (seeded stream); `count` caps total units; the [at, until) window bounds
  // the attack so recovery-to-baseline can be gated after it ends.
  FaultPlan& SynFlood(sim::Cycles at, sim::Cycles until, int count = kUnlimited,
                      double probability = 1.0, std::uint64_t seed = 0);
  FaultPlan& Slowloris(sim::Cycles at, sim::Cycles until, int count = kUnlimited,
                       double probability = 1.0, std::uint64_t seed = 0);
  FaultPlan& ConnChurn(sim::Cycles at, sim::Cycles until, int count = kUnlimited,
                       double probability = 1.0, std::uint64_t seed = 0);

  FaultPlan& Add(const FaultSpec& spec);
  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }

 private:
  std::vector<FaultSpec> specs_;
};

// The installed fault schedule. Process-wide singleton via Install/Uninstall
// (the simulator is single-threaded), mirroring trace::Tracer. Queries are
// consulted by the hardware models; each query visits the spec list once —
// plans are a handful of entries, so this is not a hot path, and with no
// Injector installed the sites pay only `active() == nullptr`.
class Injector {
 public:
  explicit Injector(const FaultPlan& plan);
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;
  ~Injector();

  void Install();
  void Uninstall();
  static Injector* active();

  // True if `core` has fail-stop halted by `now`: a HaltCore spec for it, or
  // a HaltMachine spec for the calling domain. Halts are permanent and the
  // query schedules nothing, so recovery code can poll it freely — but
  // each true answer adds one activation to the matching spec, and the
  // coverage tables print that count.
  bool CoreHalted(int core, sim::Cycles now) const;
  // True if any core is scheduled to halt at some point in the plan.
  bool AnyHaltPlanned() const;

  // Consuming queries: called once per candidate injection, they advance
  // per-spec counters/streams and record stats.
  bool ShouldDropIpi(sim::Cycles now, int from, int to);
  sim::Cycles IpiExtraDelay(sim::Cycles now, int from, int to);
  // NIC queries take the RX/TX queue the frame was steered to (matched
  // against spec `a`; the default -1 site only matches wildcard specs, so
  // stacks wired back-to-back without a SimNic keep their old behaviour).
  bool ShouldDropRxFrame(sim::Cycles now, int queue = -1);
  bool ShouldCorruptRxFrame(sim::Cycles now, int queue = -1);
  bool ShouldDropTxFrame(sim::Cycles now, int queue = -1);
  // Cross-machine wire queries, consulted by net::CrossWire in the source
  // machine's domain. Endpoints are machine (= engine domain) ids.
  bool ShouldDropWireFrame(sim::Cycles now, int src_machine, int dst_machine);
  sim::Cycles WireExtraDelay(sim::Cycles now, int src_machine, int dst_machine);
  // Non-consuming (interval-armed, unlimited): extra cross-package latency.
  sim::Cycles LinkExtra(sim::Cycles now) const;
  // Adversarial-traffic query: true if an armed attack spec of `kind` wants
  // one more attack unit emitted now (consuming; see the FaultPlan builders).
  bool ShouldEmitAttack(FaultKind kind, sim::Cycles now);

  // Total injections performed per kind, summed across domains
  // (kCoreHalt/kLinkDelay are interval predicates and stay zero here).
  std::uint64_t injected(FaultKind k) const {
    return injected_[static_cast<std::size_t>(k)].load(std::memory_order_relaxed);
  }

  // --- Per-spec coverage accounting ---
  //
  // Every spec counts its activations: consuming kinds count firings, the
  // interval predicates (kCoreHalt, kLinkDelay) count the times they answered
  // "yes". A spec with zero activations is a silent no-op — the plan named a
  // core, queue, or window the run never touched — which coverage-checking
  // benches treat as an error (see fig8_twopc --kill-core).
  std::size_t num_specs() const { return specs_.size(); }
  const FaultSpec& spec(std::size_t i) const { return specs_[i].spec; }
  std::uint64_t activations(std::size_t i) const {
    return specs_[i].activations.load(std::memory_order_relaxed);
  }
  bool AllSpecsActivated() const;
  // Prints one row per spec: kind, window, endpoints, cap, activations.
  void PrintActivationTable(std::FILE* out = stdout) const;

 private:
  struct SpecState {
    FaultSpec spec;
    // Firing count and probability stream are per engine domain: each
    // domain's injection sites only ever touch index sim::CurrentDomain(),
    // so there is no sharing between host threads, and a domain's draw
    // sequence depends only on its own consultations. Stream d is seeded by
    // DeriveStreamSeed(spec.seed, d) — domain 0 keeps spec.seed exactly, so
    // single-executor runs are untouched.
    std::array<int, sim::kMaxDomains> fired{};
    std::array<sim::Rng, sim::kMaxDomains> rng;
    // Mutable + relaxed atomic: the const interval predicates (CoreHalted,
    // LinkExtra) record coverage from any domain's thread without giving up
    // their pure-query signatures.
    mutable std::atomic<std::uint64_t> activations{0};
    explicit SpecState(const FaultSpec& s) : spec(s) {
      for (int d = 0; d < sim::kMaxDomains; ++d) {
        rng[static_cast<std::size_t>(d)].Seed(sim::DeriveStreamSeed(s.seed, d));
      }
    }
  };

  // Finds the first armed, matching, non-exhausted spec of `kind` and — if
  // its probability draw passes — consumes one firing from it (in the
  // calling domain's counter/stream).
  SpecState* Consume(FaultKind kind, sim::Cycles now, int a, int b);

  std::deque<SpecState> specs_;  // deque: SpecState is not movable (atomic member)
  std::array<std::atomic<std::uint64_t>, kNumKinds> injected_{};
  bool installed_ = false;
};

namespace internal {
// Defined in fault.cc; read through Injector::active().
extern Injector* g_active;
}  // namespace internal

inline Injector* Injector::active() { return internal::g_active; }

}  // namespace mk::fault

#endif  // MK_FAULT_FAULT_H_
