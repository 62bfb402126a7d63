// Deterministic parallel discrete-event engine: conservative lookahead over
// host-thread domains.
//
// The single-threaded Executor stays the unit of sequential execution; this
// engine composes N of them ("domains") and advances them in
// barrier-synchronized *epochs* so the composition can run on multiple host
// threads while remaining bit-identical to its single-threaded run:
//
//   * Partitioning rule — a domain owns everything that shares mutable state
//     synchronously: one hw::Machine (its coherence model, counters, TLBs,
//     IPI fabric) and all components built on it. Cross-domain interaction is
//     only allowed through registered *links*, whose latency models the
//     slowest-coupled fabric between the partitions (an inter-machine wire, a
//     datacenter link).
//
//   * Conservative lookahead — the epoch width is the minimum registered
//     cross-domain link latency L. An event executing at time u can only
//     affect another domain at u + L or later, so every domain may freely
//     dispatch all events in [T, T + L) without observing its peers: nothing
//     a peer does in that window can reach it before T + L.
//
//   * Epochs — each epoch [T, T+L) runs every domain's Executor::RunUntil in
//     parallel (T is fast-forwarded over globally idle gaps). Cross-domain
//     events are not pushed into the destination's queue directly (that
//     would race and make tie order depend on thread scheduling); they are
//     buffered in per-(src,dst) single-writer mailboxes and drained at the
//     epoch barrier in fixed (source domain id, post order) sequence, by the
//     destination's owning thread. The merge order is therefore a pure
//     function of simulated time, never of host scheduling.
//
//   * Thread mapping — domains are assigned round-robin to `threads` host
//     workers. The assignment affects wall-clock only: with 1 thread the
//     same epoch/drain sequence runs inline on the caller, so
//     `threads=N` is bit-identical to `threads=1` by construction. A
//     single-domain engine short-circuits to Executor::Run() and is
//     byte-identical to not using the engine at all.
//
// Determinism guardrails: multi-threaded runs enable per-domain owner-thread
// enforcement (a push into a foreign domain's queue aborts), and Post()
// aborts on a conservative-lookahead violation (delivery earlier than
// src.now() + link latency).
#ifndef MK_SIM_PARALLEL_H_
#define MK_SIM_PARALLEL_H_

#include <barrier>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "sim/domain.h"
#include "sim/executor.h"
#include "sim/inline_callback.h"
#include "sim/types.h"

namespace mk::sim {

class ParallelEngine {
 public:
  struct Options {
    int domains = 1;
    int threads = 1;  // host workers; clamped to [1, domains]
  };

  // Epoch width when no links are registered, and the cap on the lookahead
  // when they are (independent domains have unbounded lookahead; wider
  // epochs amortize barrier crossings).
  static constexpr Cycles kMaxLookahead = 100'000;

  // Per-domain trace-track offset stride: domain d's trace records land on
  // tracks [d*stride, (d+1)*stride), keeping every ring single-writer.
  // Exceeds the widest domain's core count (and kExecutorTrack).
  static constexpr std::uint16_t kTrackStride = 512;

  explicit ParallelEngine(Options opts);
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;
  ~ParallelEngine();

  int num_domains() const { return static_cast<int>(domains_.size()); }
  int threads() const { return threads_; }
  Cycles lookahead() const { return lookahead_; }
  Executor& domain(int d) { return domains_[static_cast<std::size_t>(d)]->exec; }

  // Declares a directed cross-domain link with the given latency (cycles).
  // The engine's lookahead is min over all registered link latencies (capped
  // by kMaxLookahead). Must be called before Run().
  void Link(int src, int dst, Cycles latency);
  // Registered latency, or 0 if none.
  Cycles link_latency(int src, int dst) const {
    return latency_[static_cast<std::size_t>(src) * domains_.size() +
                    static_cast<std::size_t>(dst)];
  }

  // Posts `cb` to run in domain `dst` at absolute time `at`. During a run it
  // must be called from domain `src`'s event context (its owning thread) and
  // obeys the conservative bound at >= domain(src).now() + link latency;
  // violations abort. Before Run() it enqueues directly (setup path).
  void Post(int src, int dst, Cycles at, InlineCallback cb);

  // Post after exactly the link's latency from src's current time — the
  // common "send a message down the wire" shape.
  void Send(int src, int dst, InlineCallback cb);

  // Runs epochs until every domain drains and no cross-domain messages are
  // pending. Returns the maximum final simulated time across domains.
  Cycles Run();

  // --- Diagnostics ---
  std::uint64_t epochs() const { return epochs_; }
  std::uint64_t cross_messages() const;   // total drained into all domains
  std::uint64_t events_dispatched() const;  // sum over domains
  Cycles max_now() const;

 private:
  struct CrossMsg {
    Cycles at;
    InlineCallback cb;
  };

  struct DomainState {
    explicit DomainState(int num_domains) : inbox(static_cast<std::size_t>(num_domains)) {}
    Executor exec;
    // inbox[src]: messages posted by domain `src` this epoch. Written only
    // by src's worker during the run phase, drained only by this domain's
    // worker after the barrier — single-writer, single-reader by phase.
    std::vector<std::vector<CrossMsg>> inbox;
    Cycles next_time = 0;
    bool has_next = false;
    std::uint64_t cross_received = 0;
  };

  // Barrier completion hook: alternates plan (choose the next epoch window
  // or stop) with a no-op between the run and drain phases.
  void OnBarrierPhase();
  void Plan();
  void RunDomain(int d);
  void DrainAndPublish(int d);
  void WorkerLoop(int worker);
  void RunSequential();

  Options opts_;
  int threads_ = 1;
  Cycles lookahead_ = kMaxLookahead;
  std::vector<std::unique_ptr<DomainState>> domains_;
  std::vector<Cycles> latency_;  // [src * D + dst]; 0 = no link

  // Epoch state: written only by the barrier completion step (exclusive) or
  // before workers start; reads are separated by the barrier.
  bool running_ = false;
  bool stop_ = false;
  Cycles epoch_end_ = 0;  // exclusive upper bound of the current epoch
  std::uint64_t epochs_ = 0;
  std::uint64_t barrier_phase_ = 0;

  struct PhaseHook {
    ParallelEngine* engine;
    void operator()() noexcept { engine->OnBarrierPhase(); }
  };
  std::optional<std::barrier<PhaseHook>> barrier_;
};

}  // namespace mk::sim

#endif  // MK_SIM_PARALLEL_H_
