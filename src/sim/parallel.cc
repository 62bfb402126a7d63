#include "sim/parallel.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "trace/trace.h"

namespace mk::sim {
namespace {

// Publishes the identity of domain `d` on the calling host thread: the
// per-domain Rng/fault streams key on sim::CurrentDomain(), and trace
// records shift onto the domain's private track range so every trace ring
// stays single-writer.
void EnterDomainTls(int d) {
  internal::tls_current_domain = d;
  trace::internal::tls_track_offset = static_cast<std::uint16_t>(
      static_cast<unsigned>(d) * ParallelEngine::kTrackStride);
}

void ResetDomainTls() {
  internal::tls_current_domain = 0;
  trace::internal::tls_track_offset = 0;
}

// One iteration of a polling loop: PAUSE on x86 keeps the spinning
// hyperthread from starving its sibling; elsewhere a plain re-check.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

// Relaxes between clock reads while polling the barrier: a few microseconds,
// so the spin bound holds in host time whatever PAUSE costs on this CPU.
constexpr int kRelaxesPerClockCheck = 256;

using Clock = std::chrono::steady_clock;

std::int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
}

[[noreturn]] void Fatal(const char* msg, long a = 0, long b = 0, long c = 0) {
  std::fprintf(stderr, "fatal: parallel engine: ");
  std::fprintf(stderr, msg, a, b, c);
  std::fputc('\n', stderr);
  std::abort();
}

}  // namespace

ParallelEngine::ParallelEngine(Options opts) : opts_(opts) {
  if (opts_.domains < 1 || opts_.domains > kMaxDomains) {
    Fatal("domains=%ld outside [1, %ld]", opts_.domains, kMaxDomains);
  }
  threads_ = std::clamp(opts_.threads, 1, opts_.domains);
  domains_.reserve(static_cast<std::size_t>(opts_.domains));
  for (int d = 0; d < opts_.domains; ++d) {
    domains_.push_back(std::make_unique<DomainState>(opts_.domains));
    domains_.back()->exec.BindEngine(this, d);
  }
  latency_.assign(
      static_cast<std::size_t>(opts_.domains) * static_cast<std::size_t>(opts_.domains), 0);
}

ParallelEngine::~ParallelEngine() = default;

void ParallelEngine::Link(int src, int dst, Cycles latency) {
  if (running_) {
    Fatal("Link(%ld, %ld) during a run", src, dst);
  }
  if (src < 0 || src >= num_domains() || dst < 0 || dst >= num_domains() || src == dst) {
    Fatal("bad link %ld -> %ld (%ld domains)", src, dst, num_domains());
  }
  if (latency < 1) {
    // A zero-latency cross-domain link would collapse the lookahead window
    // to nothing: the domains share a synchronous clock and belong in one
    // domain instead.
    Fatal("link %ld -> %ld latency must be >= 1 cycle", src, dst);
  }
  latency_[static_cast<std::size_t>(src) * domains_.size() + static_cast<std::size_t>(dst)] =
      latency;
  lookahead_ = std::min(lookahead_, latency);
}

void ParallelEngine::Post(int src, int dst, Cycles at, InlineCallback cb) {
  if (dst < 0 || dst >= num_domains()) {
    Fatal("Post to unknown domain %ld", dst);
  }
  if (!running_) {
    // Setup path (before Run()): no worker owns the queue yet, enqueue
    // directly. Used to seed cross-domain workloads.
    domains_[static_cast<std::size_t>(dst)]->exec.CallAt(at, std::move(cb));
    return;
  }
  if (CurrentDomain() != src) {
    Fatal("Post claims src domain %ld but runs in domain %ld", src, CurrentDomain());
  }
  const Cycles lat = link_latency(src, dst);
  if (lat == 0) {
    Fatal("Post %ld -> %ld without a registered link", src, dst);
  }
  const Cycles src_now = domains_[static_cast<std::size_t>(src)]->exec.now();
  if (at < src_now + lat) {
    // Conservative-lookahead violation: the destination may already have
    // dispatched past `at` in this epoch. Delivering would fork the
    // timeline, so die loudly — this is a modeling bug at the call site.
    Fatal("Post %ld -> %ld at t=%ld violates conservative bound now+latency",
          src, dst, static_cast<long>(at));
  }
  // Buffered in the (src, dst) mailbox: written only by src's worker this
  // phase, drained only by dst's worker after the barrier.
  domains_[static_cast<std::size_t>(dst)]->inbox[static_cast<std::size_t>(src)].push_back(
      CrossMsg{at, std::move(cb)});
}

void ParallelEngine::Send(int src, int dst, InlineCallback cb) {
  const Cycles lat = link_latency(src, dst);
  if (lat == 0) {
    Fatal("Send %ld -> %ld without a registered link", src, dst);
  }
  Post(src, dst, domains_[static_cast<std::size_t>(src)]->exec.now() + lat, std::move(cb));
}

void ParallelEngine::Plan() {
  // Runs exclusively: the barrier's last arrival (threaded) or inline between
  // epochs (sequential). Inboxes are empty here — every drain preceded this.
  bool any = false;
  Cycles t0 = 0;
  for (const auto& ds : domains_) {
    if (ds->has_next && (!any || ds->next_time < t0)) {
      t0 = ds->next_time;
      any = true;
    }
  }
  if (!any) {
    stop_ = true;
    return;
  }
  // Epoch window [t0, t0 + lookahead): every event in it is safe to run
  // without observing peer domains, because anything a peer does at u >= t0
  // lands at u + latency >= t0 + lookahead. Starting at the global minimum
  // fast-forwards idle gaps in one hop.
  epoch_end_ = t0 + lookahead_;
  ++epochs_;
}

void ParallelEngine::Place() {
  // Longest processing time first: the domain with the most host time goes
  // onto the least-loaded worker, and so on (ties to the lower index).
  // Placement only decides which host thread runs a domain, so it may read
  // host clocks; the schedule cannot see it.
  const std::size_t n = domains_.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  auto cost = [this](std::size_t d) { return domains_[d]->host_ns; };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return cost(a) > cost(b); });
  std::vector<std::int64_t> load(static_cast<std::size_t>(threads_), 0);
  std::vector<std::int64_t> current(static_cast<std::size_t>(threads_), 0);
  std::vector<int> owner(n);
  for (std::size_t d : order) {
    const auto w = std::min_element(load.begin(), load.end()) - load.begin();
    load[static_cast<std::size_t>(w)] += cost(d);
    owner[d] = static_cast<int>(w);
    current[static_cast<std::size_t>(owner_[d])] += cost(d);
  }
  // Keep the current placement unless the new one lowers the busiest
  // worker's load by a clear margin (1/16): near-equal domains would
  // otherwise trade places at every pass for no gain.
  const std::int64_t busiest_now = *std::max_element(current.begin(), current.end());
  const std::int64_t busiest_new = *std::max_element(load.begin(), load.end());
  if (busiest_new >= busiest_now - busiest_now / 16) {
    return;
  }
  for (std::size_t d = 0; d < n; ++d) {
    if (owner[d] != owner_[d]) {
      // The new worker owns the queue before it next runs the domain.
      domains_[d]->exec.SetOwnerThread(worker_ids_[static_cast<std::size_t>(owner[d])],
                                       /*enforce=*/true);
    }
  }
  owner_ = std::move(owner);
}

void ParallelEngine::RunDomain(int d) {
  DomainState& ds = *domains_[static_cast<std::size_t>(d)];
  EnterDomainTls(d);
  // RunUntil dispatches every event with t <= epoch_end - 1, i.e. inside
  // [.., epoch_end), then parks the clock at the epoch edge.
  ds.exec.RunUntil(epoch_end_ - 1);
}

void ParallelEngine::DrainAndPublish(int d) {
  DomainState& ds = *domains_[static_cast<std::size_t>(d)];
  EnterDomainTls(d);
  // Fixed merge order: ascending source domain, FIFO within a source. The
  // enqueue order of cross-domain events is therefore a pure function of
  // the simulation, independent of host thread interleaving — same-cycle
  // ties resolve identically at any thread count.
  for (std::size_t src = 0; src < domains_.size(); ++src) {
    auto& box = ds.inbox[src];
    for (CrossMsg& m : box) {
      ds.exec.CallAt(m.at, std::move(m.cb));
      ++ds.cross_received;
    }
    box.clear();
  }
  ds.has_next = ds.exec.NextEventTime(&ds.next_time);
}

void ParallelEngine::RunSequential() {
  // Identical phase sequence to the threaded path (plan, run 0..D-1, drain
  // 0..D-1), so thread count can only change wall-clock, never the schedule.
  for (;;) {
    Plan();
    if (stop_) {
      break;
    }
    for (int d = 0; d < num_domains(); ++d) {
      RunDomain(d);
    }
    for (int d = 0; d < num_domains(); ++d) {
      DrainAndPublish(d);
    }
  }
}

std::int64_t ParallelEngine::ArriveAndWait(bool plan) {
  // Read before arriving: the generation cannot move until this arrival is
  // counted, so `gen` is the current phase's.
  const std::uint32_t gen = generation_.load(std::memory_order_relaxed);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == threads_) {
    // Last arrival: every peer's phase work is visible (acquire above).
    // Run the exclusive step, then publish it with the next generation.
    arrived_.store(0, std::memory_order_relaxed);
    if (plan) {
      Plan();
      if (place_ && !stop_ && epochs_ % kPlacementEpochs == 0) {
        Place();
      }
    }
    generation_.store(gen + 1, std::memory_order_release);
    generation_.notify_all();
    return 0;
  }
  const Clock::time_point t0 = Clock::now();
  if (spin_) {
    // Poll for about the cost of a park and wake-up, then park. No yield:
    // a yielding spinner lets the host deschedule it, which is the wake-up
    // cost the poll exists to avoid.
    do {
      for (int i = 0; i < kRelaxesPerClockCheck; ++i) {
        if (generation_.load(std::memory_order_acquire) != gen) {
          return NsSince(t0);
        }
        CpuRelax();
      }
    } while (Clock::now() - t0 < kSpinBound);
  }
  generation_.wait(gen, std::memory_order_acquire);
  return NsSince(t0);
}

void ParallelEngine::WorkerLoop(int worker) {
  // Owner enforcement turns every cross-domain push that bypasses the
  // mailboxes into a loud abort instead of a data race. Place() hands a
  // moved domain to its new worker's thread id.
  worker_ids_[static_cast<std::size_t>(worker)] = std::this_thread::get_id();
  const int n = num_domains();
  auto mine = [this, worker](int d) { return owner_[static_cast<std::size_t>(d)] == worker; };
  for (int d = 0; d < n; ++d) {
    if (mine(d)) {
      domains_[static_cast<std::size_t>(d)]->exec.SetOwnerThread(std::this_thread::get_id(),
                                                                 /*enforce=*/true);
    }
  }
  std::int64_t waited = 0;
  for (;;) {
    waited += ArriveAndWait(/*plan=*/true);  // the last arrival plans the epoch (or stops)
    if (stop_) {
      break;
    }
    for (int d = 0; d < n; ++d) {
      if (!mine(d)) {
        continue;
      }
      if (place_) {
        const Clock::time_point t0 = Clock::now();
        RunDomain(d);
        domains_[static_cast<std::size_t>(d)]->host_ns += NsSince(t0);
      } else {
        RunDomain(d);
      }
    }
    waited += ArriveAndWait(/*plan=*/false);  // all domains reached the epoch edge
    for (int d = 0; d < n; ++d) {
      if (mine(d)) {
        DrainAndPublish(d);
      }
    }
  }
  barrier_wait_ns_.fetch_add(static_cast<std::uint64_t>(waited), std::memory_order_relaxed);
  ResetDomainTls();
}

Cycles ParallelEngine::Run() {
  if (num_domains() == 1) {
    // One domain is the plain single-threaded simulator: no epochs, no
    // barrier, byte-identical to not using the engine at all.
    return domains_[0]->exec.Run();
  }
  running_ = true;
  stop_ = false;
  for (auto& ds : domains_) {
    ds->has_next = ds->exec.NextEventTime(&ds->next_time);
  }
  if (threads_ == 1) {
    RunSequential();
    ResetDomainTls();
  } else {
    spin_ = static_cast<unsigned>(threads_) <= std::thread::hardware_concurrency();
    // With one domain per worker there is nothing to place, and on an
    // oversubscribed host the run-phase clock reads cost measurable wall
    // time.
    place_ = threads_ < num_domains();
    // Round-robin start: worker w runs domains d with d % threads == w.
    owner_.resize(domains_.size());
    for (int d = 0; d < num_domains(); ++d) {
      owner_[static_cast<std::size_t>(d)] = d % threads_;
      domains_[static_cast<std::size_t>(d)]->host_ns = 0;
    }
    worker_ids_.assign(static_cast<std::size_t>(threads_), {});
    {
      std::vector<std::jthread> workers;
      workers.reserve(static_cast<std::size_t>(threads_));
      for (int w = 0; w < threads_; ++w) {
        workers.emplace_back([this, w] { WorkerLoop(w); });
      }
    }
    for (auto& ds : domains_) {
      ds->exec.SetOwnerThread({}, /*enforce=*/false);
    }
  }
  running_ = false;
  return max_now();
}

std::uint64_t ParallelEngine::cross_messages() const {
  std::uint64_t n = 0;
  for (const auto& ds : domains_) {
    n += ds->cross_received;
  }
  return n;
}

std::uint64_t ParallelEngine::events_dispatched() const {
  std::uint64_t n = 0;
  for (const auto& ds : domains_) {
    n += ds->exec.events_dispatched();
  }
  return n;
}

Cycles ParallelEngine::max_now() const {
  Cycles t = 0;
  for (const auto& ds : domains_) {
    t = std::max(t, ds->exec.now());
  }
  return t;
}

}  // namespace mk::sim
