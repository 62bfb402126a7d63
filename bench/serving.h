// The serving harness shared by the NIC-serving benches (sec54_scaleout,
// sec54_failover, store_readwrite, rack_serving): one retrying open-loop
// HTTP client with an exact ledger, the per-shard NIC attachment, the
// single-machine serving fleet (NIC, client stack, one stack and HttpServer
// per shard, and the run that drains once every request is answered), the
// completion timeline and its recovery-window analyzer, the fault runs'
// replay and invariant lines, and the booted system (monitors included)
// that the failover benches and fig6_shootdown, fig7_unmap and fig8_twopc
// run on. Client behaviour changes here, once, for every serving bench. It
// also holds sec54_webserver's single-machine web server.
#ifndef MK_BENCH_SERVING_H_
#define MK_BENCH_SERVING_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "apps/httpd.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "kernel/cpu_driver.h"
#include "monitor/monitor.h"
#include "net/nic.h"
#include "net/stack.h"
#include "net/wire.h"
#include "recover/config.h"
#include "sim/event.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "sim/task.h"
#include "sim/types.h"
#include "skb/skb.h"

namespace mk::bench {

using sim::Cycles;
using sim::Task;

// Per-frame driver work on a serving core, each way (the webserver bench's
// dedicated-driver figure; here each shard drives its own queue).
constexpr Cycles kDriverFrameCost = 1400;

// The external client cluster: its stack costs nothing on the simulated
// machine (it stands in for httperf boxes on the other end of the wire).
net::StackCosts FreeCosts();

// Full machine boot: CPU drivers, SKB (populated + measured), monitors. The
// failover benches need the monitors because failure detection and the
// membership view change run on them; fig6-8 measure the monitors' own
// protocols. The monitors are constructed before the SKB measurement runs
// and booted after it; their constructors allocate no simulated memory and
// schedule nothing, so the order leaves every transcript unchanged.
struct System {
  explicit System(const hw::PlatformSpec& spec);
  sim::Executor exec;
  hw::Machine machine;
  std::vector<std::unique_ptr<kernel::CpuDriver>> drivers;
  skb::Skb skb;
  monitor::MonitorSystem sys;
};

// Recovery tuning for loaded serving runs: a TCP retransmit timeout above a
// loaded survivor's worst frame-to-ACK latency, and a short backoff (see
// serving.cc). Install it with recover::ScopedRecoveryConfig.
recover::RecoveryConfig ServingRecoveryConfig();

// Attaches `stack` (serving on its own core) to RX/TX queue `queue` of
// `nic`: transmitted frames pay kDriverFrameCost on the stack's core before
// the descriptor push, and the returned task is the queue's RX service loop
// (SimNic::ServeRx) feeding the stack. The loop parks on the queue's
// interrupt when idle and never returns while its core lives.
Task<> AttachShard(hw::Machine& m, net::SimNic& nic, int queue,
                   net::NetStack& stack);

// --- Open-loop HTTP client ---

// Offered load and the client's per-request bounds. Each attempt is a fresh
// connection bounded by attempt_timeout; the request, retries included, is
// shed at request_deadline.
struct Mix {
  Cycles interval_per_shard = 0;  // one launch per this many cycles, per shard
  Cycles attempt_timeout = 0;
  Cycles request_deadline = 0;
};

// One request to launch. `on_ok`, if set, sees the response body once the
// request completes.
struct Request {
  std::string target;
  std::function<void(const std::string& body)> on_ok;
};

// Makes the next request, drawing from the generator's seeded stream.
using RequestSource = std::function<Request(sim::Rng& prng)>;

// GET /index.html; draws nothing.
RequestSource StaticPage();
// The TPC-W item-detail SELECT for a random item of an `items`-item
// catalog, one draw per request.
RequestSource TpcwBrowse(int items);
// `sql` as a query-string value: spaces become '+'.
std::string FormEncode(std::string sql);

// The exact request ledger. A request counts as completed only when the
// client holds the entire 200 response (status line + full Content-Length
// body); an RST, a 503 shed, or a truncated stream is an attempt failure,
// never a completion — so a "completed" count can't hide lost work. Every
// launched request ends completed or shed.
struct Ledger {
  int launched = 0;
  int completed = 0;
  int shed = 0;     // requests that never got a full 200 by their deadline
  int retries = 0;  // extra connection attempts (RSTs, timeouts, 503s)
  // Attempt-failure causes (sum >= retries: the final failed attempt of a
  // shed request is counted here but doesn't produce a retry).
  int fail_connect = 0;  // handshake never completed (SYN into a dead queue)
  int fail_rst = 0;      // peer reset mid-flow (orphaned-flow adoption)
  int fail_503 = 0;      // admission shed by an overloaded survivor
  int fail_other = 0;    // truncation or attempt timeout
  std::vector<Cycles> latencies;    // launch to full response, per completion
  std::vector<Cycles> completions;  // absolute completion times

  bool Balanced() const { return completed + shed == launched; }
  bool operator==(const Ledger&) const = default;
};

// The ledger plus the run-time bookkeeping that fires `all_done` once every
// launched request has completed or been shed.
struct LoadStats : Ledger {
  explicit LoadStats(sim::Executor& exec) : all_done(exec) {}
  int outstanding = 0;
  bool launching_done = false;
  bool finished = false;
  sim::Event all_done;
};

// Launches `total` requests from `source` (seeded stream) at `server`:80,
// one every `interval` cycles, each with client-side retry: an attempt cut
// short (RST from a survivor, 503 shed, attempt timeout) is retried with
// exponential backoff until the request deadline. The retry's SYN is the
// client half of flow adoption — it hashes to a re-steered queue or
// backend, and a survivor accepts it.
Task<> Generator(sim::Executor& exec, net::NetStack& client, net::Ipv4Addr server,
                 int total, Cycles interval, const Mix& mix, LoadStats& st,
                 RequestSource source);

// --- The single-machine serving fleet ---

// One shard's server side: what differs between the benches.
struct Shard {
  apps::HttpServer::DbQueryFn query;      // empty: no /query
  apps::HttpServer::DbExecFn exec;        // empty: no /buy
  apps::HttpServer::Admission admission;  // default: one handler per connection
};

// The serving fleet of sec54_scaleout, sec54_failover and store_readwrite: a
// multi-queue NIC at 10 Gb/s with queue i's interrupts routed to web core
// 4i, the client cluster's stack on the machine's last core fed by the
// NIC's wire, and per shard a NetStack plus HttpServer on core 4i attached
// to queue i. Every stack shares one server IP and MAC.
class Fleet {
 public:
  // Builds the NIC from `nic` (the caller picks ring depth and RETA size;
  // queue count, line rate and IRQ routing are the fleet's) and the client.
  // Ring depth stays the caller's: sec54_scaleout's curve is measured on
  // 512-descriptor rings, and 4096 (the failover benches' depth) raises
  // its latencies and makes its 8x4 sweep shed.
  Fleet(hw::Machine& m, int shards, net::SimNic::Config nic);
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Adds the next shard and spawns its accept loop and RX loop. Spawned
  // tasks run eagerly to their first suspension, so the order of AddShard
  // calls and the caller's own spawns (a shard's DB replica loop) is part of
  // the schedule.
  void AddShard(Shard shard);

  // Launches requests_per_shard * shards requests from `source`, one every
  // interval_per_shard / shards cycles, and runs the executor until it
  // drains: once every request has completed or been shed, `shutdown`
  // (replica groups, monitors), if given, runs. Nothing is stopped. The RX
  // loops, the client's wire sink and the accept loops stay parked, so every
  // frame on the wire is read and every TCP timer ends on its own before the
  // run does. Returns the ledger.
  Ledger Run(int requests_per_shard, const Mix& mix, RequestSource source,
             std::function<Task<>()> shutdown = nullptr);

  net::SimNic& nic() { return nic_; }
  net::NetStack& client() { return client_; }
  net::NetStack& stack(int shard) { return *stacks_[static_cast<std::size_t>(shard)]; }
  apps::HttpServer& server(int shard) {
    return *servers_[static_cast<std::size_t>(shard)];
  }

 private:
  hw::Machine& m_;
  net::SimNic nic_;
  net::NetStack client_;
  std::vector<std::unique_ptr<net::NetStack>> stacks_;
  std::vector<std::unique_ptr<apps::HttpServer>> servers_;
};

// --- Section 5.4's web server (sec54_webserver) ---

// The paper's 2x2-core AMD web server: the client cluster's stack on the
// services core 0, the database on core 1, the e1000 driver on core 2 and
// the web server on core 3, with no NIC model (each frame pays driver work
// on core 2). Eight closed-loop clients each open one connection per
// request. `linux_mode` charges lighttpd/Linux's kernel crossings and copies
// instead of Barrelfish's user-space path; `use_db` fetches TPC-W SELECTs
// from a one-placement DbReplicaCluster instead of the static page.
struct WebScenario {
  bool linux_mode = false;
  bool use_db = false;
};
// Runs one scenario; returns requests per simulated second.
double RunWebServer(WebScenario sc);

// The `p` quantile (0..1) of `v`: the sample at index floor(p * (n - 1)).
Cycles Percentile(std::vector<Cycles> v, double p);

// --- Completion timeline and recovery window ---

// Completions per `bucket`-cycle bucket over [t0, t0 + window).
std::vector<int> Bucketize(const std::vector<Cycles>& completions, Cycles t0,
                           Cycles window, Cycles bucket);
// Prints the timeline, ten buckets a line; `origin` annotates the header.
void PrintBuckets(const std::vector<int>& buckets, Cycles bucket,
                  const char* origin = "");

// Recovery analysis for a kill at `kill_at` (relative to the timeline's
// t0). Individual buckets carry Poisson-scale jitter at these rates, so the
// comparison is mean-based: the pre-kill rate is the mean over all full
// buckets before the kill (skipping the warm-up bucket), and the system has
// recovered at the first bucket from which the remaining run sustains a
// mean >= `frac` of it with no bucket falling below half (a hole that deep
// is an outage, not noise). The final bucket is excluded — it is truncated
// at run end.
struct Recovery {
  double prekill = 0;
  double threshold = 0;
  bool recovered = false;
  Cycles window = 0;  // kill -> end of the first bucket of sustained recovery
};
Recovery AnalyzeRecovery(const std::vector<int>& buckets, Cycles bucket,
                         Cycles kill_at, double frac);
// Prints the target (with `rule`, e.g. ">= 7/8 of it") and the window.
void PrintRecovery(const Recovery& rec, const std::string& rule);

// --- Fault-run verdict lines ---

// Prints "replay bit-identical: yes|NO (run 1: C cycles / E events, run 2:
// C / E)", the label padded to `width` columns like the rest of the
// caller's verdict block.
void PrintReplay(int width, bool identical, Cycles cycles1, std::uint64_t events1,
                 Cycles cycles2, std::uint64_t events2);

// One invariant a chaos run must hold.
struct Invariant {
  const char* name;
  bool ok;
};
// Prints one "name ok|FAIL" row per invariant, names padded to `width`
// columns, and on any failure the line naming `seed` to reproduce it with.
// Returns whether every invariant holds.
bool PrintInvariants(int width, std::initializer_list<Invariant> invariants,
                     std::uint64_t seed);

}  // namespace mk::bench

#endif  // MK_BENCH_SERVING_H_
