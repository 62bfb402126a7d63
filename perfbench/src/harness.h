// Shared pieces of the perfbench driver: the report a pass produces, the
// exact request ledger, latency histograms (sim/stats.h), the one open-loop
// HTTP client every serving workload drives, and the rate-ladder knee.
//
// Two clocks are kept apart throughout. Host time (steady_clock seconds) is
// what a user of the simulator waits for; simulated cycles are what the
// reproduction reports. Simulated numbers must be bit-identical for a given
// seed no matter how many host threads run, whether tracing is on, or which
// pass of a run produced them; each pass folds them into a digest so the
// driver can check exactly that.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "hw/machine.h"
#include "net/nic.h"
#include "net/stack.h"
#include "net/wire.h"
#include "sim/event.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "sim/types.h"

namespace perfbench {

using mk::sim::Cycles;
using mk::sim::Task;

// ---------------------------------------------------------------------------
// Pass configuration and result

struct PassConfig {
  std::uint64_t seed = 1;
  int threads = 1;      // host threads for multi-domain workloads
  bool traced = false;  // a Tracer is installed; record the benchmark's spans
  // Simulated time at which an earlier pass's timed run ended (0: none yet).
  // When set, a single-domain run is timed in slices (see TimedRun).
  Cycles run_end = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct PassResult {
  double setup_s = 0;  // host seconds: topology, boot, populate, ramp
  double wall_s = 0;   // host seconds: the fixed offered workload
  std::vector<double> slice_s;  // host seconds per slice of a sliced run
  Cycles run_end = 0;           // simulated time at which the timed run ended
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;  // simulated events dispatched by the timed run
  // Simulated metrics: the end-to-end ones (p50_kcyc, p99_kcyc,
  // knee_req_per_mcyc, job_mcyc) and per-layer simulated counts. All of them
  // feed the digest.
  std::vector<Metric> sim;
  // Observer-only per-layer metrics: host ns per op, and spans and tracer
  // totals that exist only in a traced pass. Never in the digest.
  std::vector<Metric> observed;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> notes;  // human-readable lines (ladder table, ...)
  std::uint64_t digest = 0;

  void Sim(std::string name, double value, std::string unit) {
    sim.push_back({std::move(name), value, std::move(unit)});
  }
  void Observe(std::string name, double value, std::string unit) {
    observed.push_back({std::move(name), value, std::move(unit)});
  }
  void Check(std::string name, bool ok) { checks.emplace_back(std::move(name), ok); }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  // Folds the simulated metrics, the ledger totals, the event count and any
  // `extra` words into `digest`.
  void Seal(std::initializer_list<std::uint64_t> extra = {});
};

// The four workloads. Each builds its system from scratch (timed as set-up),
// runs its fixed offered workload (timed as the run) and tears down.
PassResult RunRackGet(const PassConfig& cfg);
PassResult RunConnKeepalive(const PassConfig& cfg);
PassResult RunStoreBrowseBuy(const PassConfig& cfg);
PassResult RunOmpMapreduce(const PassConfig& cfg);

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

// Host nanoseconds per call of `fn`, over at least `min_calls` calls and
// at least 20 ms.
double HostNsPerOp(const std::function<void()>& fn, int min_calls);

// Runs `exec` until it drains, as the pass's timed run: sets out->wall_s
// and out->run_end. With cfg.run_end set, the run goes in kRunSlices equal
// slices of simulated time up to run_end and each slice's host seconds land
// in out->slice_s. Every pass of a seed dispatches the same events in slice
// k, so the driver can compare passes slice by slice. Slicing does not move
// an event: the run still ends at the same simulated time (the pass's
// digest checks that).
inline constexpr int kRunSlices = 200;
void TimedRun(mk::sim::Executor& exec, const PassConfig& cfg, PassResult* out);

// ---------------------------------------------------------------------------
// Latency: a sim::Histogram with a fixed bucket width, in cycles.

class Latency {
 public:
  explicit Latency(Cycles width = 100, Cycles max = 20'000'000)
      : hist_(0, static_cast<double>(max), static_cast<std::size_t>(max / width)) {}
  void Add(Cycles c) { hist_.Add(static_cast<double>(c)); }
  double P(double p) const { return hist_.Percentile(p); }
  std::uint64_t count() const { return hist_.stat().count(); }

 private:
  mk::sim::Histogram hist_;
};

// Percentile `p` of raw span durations, through a Latency of `width`.
double SpanPercentile(const std::vector<Cycles>& spans, double p, Cycles width, Cycles max);

// ---------------------------------------------------------------------------
// Exact request ledger: every offered operation lands in exactly one bucket.

struct Ledger {
  std::uint64_t offered = 0;
  std::uint64_t served = 0;     // complete 200 response (for a buy: acked)
  std::uint64_t shed = 0;       // complete non-200 response, or a store refusal
  std::uint64_t refused = 0;    // connect failed
  std::uint64_t reset = 0;      // closed before the response completed
  std::uint64_t timed_out = 0;  // request deadline passed
  std::uint64_t failed() const { return shed + refused + reset + timed_out; }
  bool Exact() const { return served + failed() == offered; }
};

// ---------------------------------------------------------------------------
// Open-loop HTTP client

// One scheduled request. `due` is relative to its phase's start; latency is
// timed from the due time, so a stalled generator charges its lateness to
// every request.
struct Request {
  Cycles due = 0;
  std::string text;
  bool write = false;
  int owner = -1;  // write partition (store), else -1
};

// Builds `n` requests arriving at `rate` req/Mcycle with Erlang-4
// inter-arrival gaps (independent users, but less bursty than Poisson, so a
// seed moves the tail less); `make(i, rng)` renders request i.
std::vector<Request> ArrivalSchedule(mk::sim::Rng& rng, int n, double rate,
                                     const std::function<Request(int, mk::sim::Rng&)>& make);

// Cumulative per-layer counters at one instant, in request-path order. A
// name ends in ".drops" (frames or requests lost) or ".busy" (span cycles).
using LayerCounters = std::vector<std::pair<std::string, double>>;

// One offered-load phase: the nominal rate, or one rung of the ladder.
struct Phase {
  std::string name;
  double rate = 0;  // offered requests per Mcycle
  std::vector<Request> requests;
  Ledger ledger;
  Latency lat;
  Latency write_lat;
  std::vector<std::uint64_t> acked_per_owner;
  Cycles start = 0;  // absolute
  Cycles last_done = 0;
  Cycles max_lag = 0;
  int outstanding = 0;
  // Outstanding requests summed at each arrival, by half of the arrival
  // window: a growing backlog shows as a second half holding clearly more.
  double backlog_first = 0;
  double backlog_second = 0;
  std::uint64_t launched = 0;
  LayerCounters layers;  // at the phase's end boundary (see SnapshotLoop)
  bool BacklogGrows() const;
};

struct ClientConfig {
  mk::net::Ipv4Addr server_ip = 0;  // port 80
  Cycles deadline = 6'000'000;      // per request, from its due time
  bool keep_alive = false;          // pool connections the server keeps open
};

// Drives phases on a fixed simulated schedule: phase k starts at start(k)
// and every request resolves by its due time plus the deadline, so phase k
// has drained by boundary(k), a fixed gap before start(k+1). Fixed
// boundaries let every engine domain snapshot its own counters there
// without cross-thread reads.
class Client {
 public:
  Client(mk::sim::Executor& exec, std::vector<mk::net::NetStack*> stacks, ClientConfig cfg)
      : exec_(exec), stacks_(std::move(stacks)), cfg_(cfg), pools_(stacks_.size()),
        drained_(exec) {}

  // Fixes the schedule of `phases` from simulated time `t0`. Call at set-up.
  void Plan(std::vector<Phase>* phases, Cycles t0);
  const std::vector<Cycles>& boundaries() const { return boundaries_; }

  // Called once every phase has drained (teardown: close pools, stop
  // drivers, shut services down).
  std::function<Task<>()> on_done;

  // Spawn this after Plan().
  Task<> Run();
  Task<> ClosePools();

  bool finished() const { return finished_; }
  std::uint64_t keepalive_reuses() const { return reuses_; }

 private:
  Task<> OneRequest(Phase* phase, const Request* req, std::size_t idx);

  mk::sim::Executor& exec_;
  std::vector<mk::net::NetStack*> stacks_;
  ClientConfig cfg_;
  std::vector<std::vector<mk::net::NetStack::TcpConn*>> pools_;
  std::vector<Phase>* phases_ = nullptr;
  std::vector<Cycles> boundaries_;
  mk::sim::Event drained_;
  bool launching_ = false;
  bool finished_ = false;
  std::uint64_t reuses_ = 0;
};

// Records `fn()` at each boundary into `out` (one entry per boundary). Spawn
// one per engine domain, with an `fn` that reads only that domain's state.
Task<> SnapshotLoop(mk::sim::Executor& exec, std::vector<Cycles> boundaries,
                    std::function<LayerCounters()> fn, std::vector<LayerCounters>* out);

// Sums per-domain snapshots into each phase's `layers`, keeping the order in
// which names first appear (list domains in request-path order).
void MergeSnapshots(const std::vector<const std::vector<LayerCounters>*>& per_domain,
                    std::vector<Phase>* phases);

struct HttpReply {
  int status = 0;
  bool keep_alive = false;
  std::string body;
};
// Parses one HTTP response out of `buf`; true once it is complete.
bool ParseReply(const std::string& buf, HttpReply* out);

// ---------------------------------------------------------------------------
// Knee on a fixed rate ladder

struct KneeResult {
  double knee = 0;        // offered req/Mcycle
  int last_ok_rung = -1;  // index into phases; -1 if even the first failed
  std::string saturated;  // first layer whose drops or busy share rose at the knee
};

// A rung passes when every request was served, p99 stays under `p99_limit`
// cycles and the backlog does not grow. The knee is the rate of the highest
// passing rung before the first failure; when that failure is a latency one
// it is interpolated linearly on p99 to where p99 crosses the limit.
KneeResult FindKnee(const std::vector<Phase>& phases, Cycles p99_limit);

// Ladder table (rate, p50, p99 and its sample count, ledger, backlog) into
// `out`'s notes, plus the knee and the saturating layer.
void NoteLadder(const std::vector<Phase>& phases, Cycles p99_limit, const KneeResult& k,
                PassResult* out);

// The end-to-end serving metrics of the nominal phase plus the knee; also
// checks that every phase's ledger is exact.
void AddServingMetrics(const std::vector<Phase>& phases, const KneeResult& knee,
                       PassResult* out);

// ---------------------------------------------------------------------------
// NIC driver loop and spans

// Spans the benchmark's own code records around its calls into each layer
// (traced passes only). One SpanSet per engine domain keeps every writer on
// its domain's thread.
struct SpanSet {
  std::vector<Cycles> nic_pop;      // SimNic::DriverRxPop
  std::vector<Cycles> stack_input;  // NetStack::Input
  std::vector<Cycles> store_read;   // ReplicatedStore::Query
  std::vector<Cycles> store_write;  // ReplicatedStore::Execute
  double nic_busy = 0;
  double stack_busy = 0;
  std::vector<mk::net::Packet> captured;  // frames kept for host timings
};

// Pops frames from one RX queue, charges the driver cost and feeds `stack`;
// parks on the RX interrupt when idle. Exits when `*stop` is set and the
// interrupt is signalled (stop == nullptr: runs for the engine's lifetime).
Task<> DriverLoop(mk::hw::Machine& m, mk::net::SimNic& nic, mk::net::NetStack& stack,
                  int queue, int core, SpanSet* spans, const bool* stop);

// Load generators' stacks cost nothing on the simulated machine.
mk::net::StackCosts FreeCosts();

// ---------------------------------------------------------------------------
// Per-layer metrics shared by the workloads

// net.parse_host_ns and net.rss_host_ns on captured frames.
void AddFrameHostTimings(const std::vector<mk::net::Packet>& frames, const mk::net::SimNic* nic,
                         PassResult* out);
// httpd.framer_host_ns on the pass's request texts.
void AddFramerHostTiming(const std::vector<Phase>& phases, PassResult* out);
// nic/stack span percentiles from merged span sets.
void AddNetSpans(const std::vector<const SpanSet*>& spans, PassResult* out);
// Tracer totals (urpc, monitor, kernel, trace.dropped), when one is installed.
void AddTracerMetrics(PassResult* out);
// hw.* counters summed over `machines`.
void AddHwCounters(const std::vector<mk::hw::Machine*>& machines, PassResult* out);
// stack.*, wheel.* and conntab.* summed over server-side `stacks`.
void AddStackCounters(const std::vector<const mk::net::NetStack*>& stacks, PassResult* out);
// nic.* summed over `nics`.
void AddNicCounters(const std::vector<const mk::net::SimNic*>& nics, PassResult* out);
// Executor drain checks: no pending events anywhere.
void CheckDrained(const std::vector<const mk::sim::Executor*>& execs, PassResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
