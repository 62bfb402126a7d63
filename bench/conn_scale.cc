// Connection-scale hardening bench (ROADMAP item 5): keep-alive serving at
// 100k+ concurrent connections on the timer-wheel TCP lifecycle, and
// survival under adversarial traffic.
//
// Modes (all in one default invocation; --attack=<m> selects one):
//   clean     — ramp 100k+ keep-alive connections (held established on the
//               server) plus a diurnal open-loop request stream; gates on
//               peak established count and on zero leaked table entries or
//               wheel slots after teardown.
//   synflood  — forged spoofed-source SYNs at the server. The half-open
//               table is capped; overflow is answered with stateless
//               SYN-cookie SYN-ACKs, so legitimate clients still complete
//               their handshakes while the flood costs the server no state.
//   slowloris — attacker connections trickle header bytes forever; the
//               server's per-request progress deadline answers 408 and
//               counts the connection as shed (kRecoverShed cause 2).
//   churn     — bursty open/close connection storms (open-loop, square-wave
//               pacing) that must not leak connection-table entries or
//               timer-wheel slots.
//
// Every attack is a first-class fault::FaultPlan spec with per-spec
// activation accounting: the attack generators consume one spec firing per
// attack unit, and a spec with zero activations fails the run. Legitimate
// load is generated open-loop and every request attempt is accounted into an
// exact ledger: served + shed + refused + reset == offered. Goodput is
// bucketized so the attack window can be gated against the clean baseline
// (>=50% during the attack) and recovery-to-baseline (>=90%) is printed as
// an explicit window after the attack ends.
//
// Deterministic: simulated cycles, seeded RNG, single engine domain — output
// is byte-identical at any --threads value (the golden gate checks 1 and 4).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "apps/httpd.h"
#include "bench_util.h"
#include "fault/fault.h"
#include "recover/config.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/stack.h"
#include "net/wire.h"
#include "serving.h"
#include "sim/event.h"
#include "sim/executor.h"
#include "sim/task.h"

namespace mk {
namespace {

using net::Packet;
using sim::Cycles;
using sim::Task;

constexpr int kClientCore = 0;
constexpr int kAttackCore = 1;
constexpr int kDriverCore = 2;
constexpr int kServerCore = 3;
constexpr Cycles kDriverCost = 1400;
constexpr net::Ipv4Addr kServerIp = net::MakeIp(10, 0, 0, 1);
const net::MacAddr kServerMac{2, 0, 0, 0, 0, 1};
constexpr int kClientStacks = 8;
constexpr Cycles kConnectTimeout = 6'000'000;
constexpr Cycles kResponseDeadline = 8'000'000;
constexpr int kMaxInflight = 256;

struct Sizes {
  int holders = 100'000;        // clean-sustain concurrent connections
  int attack_holders = 8'000;   // held connections during attack runs
  Cycles sustain = 30'000'000;  // clean-sustain request window
  Cycles baseline = 16'000'000;
  Cycles attack = 24'000'000;
  Cycles recovery = 24'000'000;
  Cycles bucket = 4'000'000;
  Cycles arrival_gap = 40'000;  // open-loop peak inter-arrival
};

Sizes QuickSizes() {
  Sizes s;
  s.holders = 2'000;
  s.attack_holders = 1'000;
  s.sustain = 10'000'000;
  s.baseline = 8'000'000;
  s.attack = 8'000'000;
  s.recovery = 12'000'000;
  s.bucket = 2'000'000;
  s.arrival_gap = 40'000;
  return s;
}

// Exact request ledger: every legitimate request attempt lands in exactly
// one bucket.
struct Ledger {
  std::uint64_t offered = 0;
  std::uint64_t served = 0;   // 200 received
  std::uint64_t shed = 0;     // 503/408/400 received
  std::uint64_t refused = 0;  // connect failed or client at inflight cap
  std::uint64_t reset = 0;    // connection died mid-request
  bool Exact() const { return served + shed + refused + reset == offered; }
};

struct Cluster {
  explicit Cluster(bool lifecycle_clients) : m(exec, hw::Amd2x2()) {
    net::TcpLifecycle server_lc;
    server_lc.enabled = true;
    server_lc.time_wait = 400'000;
    server_lc.syn_rcvd_timeout = 1'000'000;
    server_lc.max_half_open = 64;
    server = std::make_unique<net::NetStack>(m, kServerCore, kServerIp, kServerMac);
    server->SetLifecycle(server_lc);
    // External load generators: their stacks cost nothing on the simulated
    // machine (the server pays full freight for every frame, including
    // attack frames).
    for (int i = 0; i < kClientStacks; ++i) {
      net::Ipv4Addr ip = net::MakeIp(10, 0, 1, static_cast<std::uint8_t>(1 + i));
      net::MacAddr mac{2, 0, 0, 1, 0, static_cast<std::uint8_t>(1 + i)};
      auto st = std::make_unique<net::NetStack>(m, kClientCore, ip, mac, bench::FreeCosts());
      if (lifecycle_clients) {
        net::TcpLifecycle lc;
        lc.enabled = true;
        lc.time_wait = 200'000;
        st->SetLifecycle(lc);
      }
      st->AddArp(kServerIp, kServerMac);
      server->AddArp(ip, mac);
      clients.push_back(std::move(st));
    }
    {
      net::Ipv4Addr ip = net::MakeIp(10, 0, 2, 1);
      net::MacAddr mac{2, 0, 0, 2, 0, 1};
      attacker = std::make_unique<net::NetStack>(m, kAttackCore, ip, mac, bench::FreeCosts());
      net::TcpLifecycle lc;
      lc.enabled = true;
      lc.time_wait = 200'000;
      attacker->SetLifecycle(lc);
      attacker->AddArp(kServerIp, kServerMac);
      server->AddArp(ip, mac);
    }
    // L2/L3 "rack": frames transit the driver core and are routed by
    // destination address. A frame for an address no stack owns (a reply to
    // a spoofed flood source) is blackholed and counted.
    auto route = [this](Packet p) -> Task<> {
      co_await m.Compute(kDriverCore, kDriverCost);
      net::ParseInfo info;
      auto parsed = net::ParseFrame(p, &info);
      if (!parsed) {
        ++blackholed;
        co_return;
      }
      net::Ipv4Addr dst = parsed->ip.dst;
      if (dst == kServerIp) {
        co_await server->Input(std::move(p));
        co_return;
      }
      if (dst == attacker->ip()) {
        co_await attacker->Input(std::move(p));
        co_return;
      }
      for (auto& c : clients) {
        if (c->ip() == dst) {
          co_await c->Input(std::move(p));
          co_return;
        }
      }
      ++blackholed;  // spoofed source: the SYN-ACK/RST has nowhere to go
    };
    server->SetOutput(route);
    attacker->SetOutput(route);
    for (auto& c : clients) {
      c->SetOutput(route);
    }
  }

  sim::Executor exec;
  hw::Machine m;
  std::unique_ptr<net::NetStack> server;
  std::vector<std::unique_ptr<net::NetStack>> clients;
  std::unique_ptr<net::NetStack> attacker;
  std::uint64_t blackholed = 0;
};

// --- Client-side HTTP response framing (status + Content-Length body) ---
struct ParsedResponse {
  int status = 0;
  bool keep_alive = false;
};

// True once `buf` holds one complete response; fills `out`.
bool TryParseResponse(const std::string& buf, ParsedResponse* out) {
  std::size_t hdr_end = buf.find("\r\n\r\n");
  if (hdr_end == std::string::npos) {
    return false;
  }
  std::size_t sp = buf.find(' ');
  if (sp == std::string::npos || sp + 4 > buf.size()) {
    return false;
  }
  out->status = std::atoi(buf.c_str() + sp + 1);
  std::size_t cl = buf.find("Content-Length: ");
  std::size_t body_len = 0;
  if (cl != std::string::npos && cl < hdr_end) {
    body_len = static_cast<std::size_t>(std::atoll(buf.c_str() + cl + 16));
  }
  if (buf.size() < hdr_end + 4 + body_len) {
    return false;
  }
  out->keep_alive = buf.find("Connection: keep-alive") < hdr_end;
  return true;
}

struct RunState {
  explicit RunState(sim::Executor& exec) : done_ev(exec) {}
  Ledger ledger;
  std::vector<std::uint64_t> served_buckets;
  Cycles bucket = 1;
  int inflight = 0;
  std::uint64_t keepalive_reuses = 0;
  // Per-stack pools of idle keep-alive connections owned by the requester
  // side.
  std::vector<std::deque<net::NetStack::TcpConn*>> pools;
  // Held connections (the 100k concurrency ballast).
  std::vector<std::vector<net::NetStack::TcpConn*>> held;
  int ramp_pending = 0;
  int holder_failures = 0;
  sim::Event done_ev;
  // Attack bookkeeping.
  std::uint64_t flood_syns = 0;
  std::uint64_t loris_drips = 0;
  std::uint64_t churn_conns = 0;
  std::uint64_t churn_failures = 0;
};

Task<> RampStack(Cluster& cl, RunState& rs, int idx, int count) {
  // Bounded-parallel connect storm: 8 handshakes in flight per stack (64
  // total). More parallelism would queue the handshake-completing ACKs
  // behind more server-core work than syn_rcvd_timeout allows.
  sim::Semaphore slots(cl.exec, 8);
  int pending = count;
  sim::Event done(cl.exec);
  for (int i = 0; i < count; ++i) {
    co_await slots.Acquire();
    cl.exec.Spawn([](Cluster& c, RunState& r, int stack, sim::Semaphore& sem,
                     int& left, sim::Event& ev) -> Task<> {
      net::NetStack::TcpConn* conn =
          co_await c.clients[static_cast<std::size_t>(stack)]->TcpConnect(
              kServerIp, 80, kConnectTimeout);
      if (conn == nullptr) {
        ++r.holder_failures;
      } else {
        r.held[static_cast<std::size_t>(stack)].push_back(conn);
      }
      sem.Release();
      if (--left == 0) {
        ev.Signal();
      }
    }(cl, rs, idx, slots, pending, done));
  }
  while (pending > 0) {
    co_await done.Wait();
  }
  if (--rs.ramp_pending == 0) {
    rs.done_ev.Signal();
  }
}

Task<> CloseHeld(Cluster& cl, RunState& rs, int idx, int* left, sim::Event* ev) {
  sim::Semaphore slots(cl.exec, 32);
  auto& stack = *cl.clients[static_cast<std::size_t>(idx)];
  int pending = static_cast<int>(rs.held[static_cast<std::size_t>(idx)].size());
  sim::Event done(cl.exec);
  for (net::NetStack::TcpConn* conn : rs.held[static_cast<std::size_t>(idx)]) {
    co_await slots.Acquire();
    cl.exec.Spawn([](net::NetStack& st, net::NetStack::TcpConn* c,
                     sim::Semaphore& sem, int& p, sim::Event& d) -> Task<> {
      co_await st.TcpClose(*c);
      st.Release(c);
      sem.Release();
      if (--p == 0) {
        d.Signal();
      }
    }(stack, conn, slots, pending, done));
  }
  while (pending > 0) {
    co_await done.Wait();
  }
  rs.held[static_cast<std::size_t>(idx)].clear();
  if (--*left == 0) {
    ev->Signal();
  }
}

Task<> DoRequest(Cluster& cl, RunState& rs, int idx) {
  ++rs.inflight;
  auto& stack = *cl.clients[static_cast<std::size_t>(idx)];
  auto& pool = rs.pools[static_cast<std::size_t>(idx)];
  net::NetStack::TcpConn* conn = nullptr;
  if (!pool.empty()) {
    conn = pool.front();
    pool.pop_front();
    if (conn->peer_closed) {  // server closed it while pooled (idle/budget)
      co_await stack.TcpClose(*conn);
      stack.Release(conn);
      conn = nullptr;
    } else {
      ++rs.keepalive_reuses;
    }
  }
  if (conn == nullptr) {
    conn = co_await stack.TcpConnect(kServerIp, 80, kConnectTimeout);
    if (conn == nullptr) {
      ++rs.ledger.refused;
      --rs.inflight;
      co_return;
    }
  }
  co_await stack.TcpSend(*conn, "GET / HTTP/1.1\r\nHost: bench\r\n\r\n");
  std::string buf;
  ParsedResponse resp;
  bool complete = false;
  while (!complete) {
    if (TryParseResponse(buf, &resp)) {
      complete = true;
      break;
    }
    bool readable = co_await stack.WaitReadable(*conn, kResponseDeadline);
    if (!readable) {
      break;  // response deadline: treat as a reset for the ledger
    }
    std::vector<std::uint8_t> chunk = co_await conn->Read();
    if (chunk.empty()) {
      break;  // closed/reset under us
    }
    buf.append(chunk.begin(), chunk.end());
  }
  if (complete && resp.status == 200) {
    ++rs.ledger.served;
    std::size_t b = static_cast<std::size_t>(cl.exec.now() / rs.bucket);
    if (b >= rs.served_buckets.size()) {
      rs.served_buckets.resize(b + 1, 0);
    }
    ++rs.served_buckets[b];
  } else if (complete) {
    ++rs.ledger.shed;
  } else {
    ++rs.ledger.reset;
  }
  if (complete && resp.keep_alive && !conn->peer_closed) {
    pool.push_back(conn);
  } else {
    co_await stack.TcpClose(*conn);
    stack.Release(conn);
  }
  --rs.inflight;
}

Task<> ArrivalGen(Cluster& cl, RunState& rs, Cycles until, bench::LoadShape shape,
                  Cycles period, Cycles base_gap) {
  std::uint64_t n = 0;
  const Cycles t0 = cl.exec.now();
  while (cl.exec.now() < until) {
    ++rs.ledger.offered;
    if (rs.inflight >= kMaxInflight) {
      ++rs.ledger.refused;  // open-loop overload: client gives up immediately
    } else {
      cl.exec.Spawn(DoRequest(cl, rs, static_cast<int>(n % kClientStacks)));
    }
    ++n;
    std::uint64_t level = bench::LoadShapeLevel(shape, cl.exec.now() - t0, period);
    if (level < 64) {
      level = 64;  // trough floor: the stream never fully stops
    }
    co_await cl.exec.Delay(base_gap * 1024 / level);
  }
}

// --- Attack generators (each consumes FaultPlan spec firings) ---

Task<> SynFloodGen(Cluster& cl, RunState& rs, Cycles until, Cycles gap) {
  std::uint64_t i = 0;
  while (cl.exec.now() < until) {
    fault::Injector* inj = fault::Injector::active();
    if (inj != nullptr &&
        inj->ShouldEmitAttack(fault::FaultKind::kSynFlood, cl.exec.now())) {
      // Forge a SYN from an unroutable spoofed source; the server's answer
      // (SYN-ACK or cookie SYN-ACK) blackholes at the router.
      net::EthHeader eth;
      eth.src = net::MacAddr{6, 6, 6, 0, 0, 1};
      eth.dst = kServerMac;
      net::IpHeader ip;
      ip.src = net::MakeIp(172, 16, static_cast<std::uint8_t>((i / 200) % 64),
                           static_cast<std::uint8_t>(1 + i % 200));
      ip.dst = kServerIp;
      ip.ident = static_cast<std::uint16_t>(i);
      net::TcpHeader tcp;
      tcp.src_port = static_cast<std::uint16_t>(40000 + i % 20000);
      tcp.dst_port = 80;
      tcp.seq = static_cast<std::uint32_t>(7777 + i);
      tcp.flags = net::TcpFlags{.syn = true};
      Packet frame = net::BuildTcpFrame(eth, ip, tcp, nullptr, 0);
      // Open loop: the flood never waits for the victim — deliveries queue
      // at the driver and server cores like any other wire arrival.
      cl.exec.Spawn([](Cluster& c, Packet fr) -> Task<> {
        co_await c.m.Compute(kDriverCore, kDriverCost);
        co_await c.server->Input(std::move(fr));
      }(cl, std::move(frame)));
      ++rs.flood_syns;
    }
    ++i;
    co_await cl.exec.Delay(gap);
  }
}

Task<> SlowlorisConn(Cluster& cl, RunState& rs, Cycles start, Cycles until,
                     Cycles drip_gap) {
  // One slowloris "slot": keep a connection trickling header bytes; when the
  // server 408s it, reconnect and resume, for as long as the window is armed.
  // The slot stays quiet until the fault window opens.
  if (cl.exec.now() < start) {
    co_await cl.exec.Delay(start - cl.exec.now());
  }
  while (cl.exec.now() < until) {
    net::NetStack::TcpConn* conn =
        co_await cl.attacker->TcpConnect(kServerIp, 80, kConnectTimeout);
    if (conn == nullptr) {
      co_await cl.exec.Delay(drip_gap);
      continue;
    }
    co_await cl.attacker->TcpSend(*conn, "GET /slow HTTP/1.1\r\n");
    while (cl.exec.now() < until && !conn->peer_closed) {
      fault::Injector* inj = fault::Injector::active();
      if (inj != nullptr &&
          inj->ShouldEmitAttack(fault::FaultKind::kSlowloris, cl.exec.now())) {
        co_await cl.attacker->TcpSend(*conn, "X");
        ++rs.loris_drips;
      }
      co_await cl.exec.Delay(drip_gap);
    }
    co_await cl.attacker->TcpClose(*conn);
    cl.attacker->Release(conn);
  }
}

Task<> ChurnGen(Cluster& cl, RunState& rs, Cycles until, Cycles base_gap) {
  // Square-wave (bursty) open/close storm: full handshake, immediate close.
  const Cycles t0 = cl.exec.now();
  while (cl.exec.now() < until) {
    fault::Injector* inj = fault::Injector::active();
    if (inj != nullptr &&
        inj->ShouldEmitAttack(fault::FaultKind::kConnChurn, cl.exec.now())) {
      net::NetStack::TcpConn* conn =
          co_await cl.attacker->TcpConnect(kServerIp, 80, kConnectTimeout);
      if (conn == nullptr) {
        ++rs.churn_failures;
      } else {
        ++rs.churn_conns;
        co_await cl.attacker->TcpClose(*conn);
        cl.attacker->Release(conn);
      }
    }
    std::uint64_t level =
        bench::LoadShapeLevel(bench::LoadShape::kBursty, cl.exec.now() - t0,
                              8'000'000);
    if (level < 64) {
      level = 64;
    }
    co_await cl.exec.Delay(base_gap * 1024 / level);
  }
}

// --- One full scenario run ---

struct Gates {
  bool ok = true;
  void Check(const char* name, bool pass) {
    std::printf("%s: %s\n", name, pass ? "PASS" : "FAIL");
    ok = ok && pass;
  }
};

std::uint64_t BucketAvg(const std::vector<std::uint64_t>& buckets, Cycles bucket,
                        Cycles from, Cycles to) {
  std::size_t b0 = static_cast<std::size_t>((from + bucket - 1) / bucket);
  std::size_t b1 = static_cast<std::size_t>(to / bucket);
  std::uint64_t sum = 0;
  std::size_t n = 0;
  for (std::size_t b = b0; b < b1; ++b) {
    sum += b < buckets.size() ? buckets[b] : 0;
    ++n;
  }
  return n == 0 ? 0 : sum / n;
}

enum class Attack { kClean, kSynFlood, kSlowloris, kChurn };

const char* AttackName(Attack a) {
  switch (a) {
    case Attack::kClean: return "clean";
    case Attack::kSynFlood: return "synflood";
    case Attack::kSlowloris: return "slowloris";
    case Attack::kChurn: return "churn";
  }
  return "?";
}

Task<> Scenario(Cluster& cl, RunState& rs, const Sizes& sz, Attack attack,
                std::uint64_t chaos_seed, Gates& gates, bool* finished) {
  const bool clean = attack == Attack::kClean;
  const int holders = clean ? sz.holders : sz.attack_holders;
  // Ramp: establish the held-connection ballast.
  rs.ramp_pending = kClientStacks;
  const int per_stack = holders / kClientStacks;
  for (int i = 0; i < kClientStacks; ++i) {
    cl.exec.Spawn(RampStack(cl, rs, i, per_stack));
  }
  while (rs.ramp_pending > 0) {
    co_await rs.done_ev.Wait();
  }
  const Cycles ramp_end = cl.exec.now();
  std::printf("ramp: %d connections in %llu cycles (failures=%d)\n", holders,
              static_cast<unsigned long long>(ramp_end), rs.holder_failures);
  std::printf("established now=%d peak=%d half_open=%d\n",
              cl.server->established_count(), cl.server->peak_established(),
              cl.server->half_open_count());

  std::unique_ptr<fault::Injector> inj;
  Cycles attack_start = 0;
  Cycles attack_end = 0;
  Cycles run_end;
  if (clean) {
    run_end = ramp_end + sz.sustain;
    cl.exec.Spawn(ArrivalGen(cl, rs, run_end, bench::LoadShape::kDiurnal,
                             10'000'000, sz.arrival_gap));
  } else {
    attack_start = ramp_end + sz.baseline;
    attack_end = attack_start + sz.attack;
    run_end = attack_end + sz.recovery;
    double prob = chaos_seed == 0 ? 1.0 : 0.85;
    fault::FaultPlan plan;
    switch (attack) {
      case Attack::kSynFlood:
        plan.SynFlood(attack_start, attack_end, fault::kUnlimited, prob, chaos_seed);
        break;
      case Attack::kSlowloris:
        plan.Slowloris(attack_start, attack_end, fault::kUnlimited, prob, chaos_seed);
        break;
      case Attack::kChurn:
        plan.ConnChurn(attack_start, attack_end, fault::kUnlimited, prob, chaos_seed);
        break;
      case Attack::kClean:
        break;
    }
    inj = std::make_unique<fault::Injector>(plan);
    inj->Install();
    cl.exec.Spawn(ArrivalGen(cl, rs, run_end, bench::LoadShape::kSteady, 0,
                             sz.arrival_gap));
    switch (attack) {
      case Attack::kSynFlood:
        cl.exec.Spawn(SynFloodGen(cl, rs, attack_end, 15'000));
        break;
      case Attack::kSlowloris:
        for (int i = 0; i < 8; ++i) {
          cl.exec.Spawn(SlowlorisConn(cl, rs, attack_start, attack_end, 300'000));
        }
        break;
      case Attack::kChurn:
        cl.exec.Spawn(ChurnGen(cl, rs, attack_end, 40'000));
        break;
      case Attack::kClean:
        break;
    }
  }

  // Let the run play out, then drain in-flight requests.
  while (cl.exec.now() < run_end) {
    co_await cl.exec.Delay(run_end - cl.exec.now());
  }
  while (rs.inflight > 0) {
    co_await cl.exec.Delay(500'000);
  }
  if (inj != nullptr) {
    std::printf("attack window [%llu, %llu)\n",
                static_cast<unsigned long long>(attack_start),
                static_cast<unsigned long long>(attack_end));
    inj->PrintActivationTable();
    gates.Check("activation gate (every spec fired)", inj->AllSpecsActivated());
    inj->Uninstall();
  }

  // Teardown: close pooled requester connections, then the held ballast.
  for (std::size_t i = 0; i < rs.pools.size(); ++i) {
    auto& stack = *cl.clients[i];
    while (!rs.pools[i].empty()) {
      net::NetStack::TcpConn* conn = rs.pools[i].front();
      rs.pools[i].pop_front();
      co_await stack.TcpClose(*conn);
      stack.Release(conn);
    }
  }
  int close_left = kClientStacks;
  sim::Event closed_ev(cl.exec);
  for (int i = 0; i < kClientStacks; ++i) {
    cl.exec.Spawn(CloseHeld(cl, rs, i, &close_left, &closed_ev));
  }
  while (close_left > 0) {
    co_await closed_ev.Wait();
  }
  // Leave time for FIN/ACK dances, TIME_WAIT reaps, and half-open expiries
  // to drain on both sides.
  co_await cl.exec.Delay(3'000'000);

  // --- Report ---
  std::printf("ledger: offered=%llu served=%llu shed=%llu refused=%llu reset=%llu\n",
              static_cast<unsigned long long>(rs.ledger.offered),
              static_cast<unsigned long long>(rs.ledger.served),
              static_cast<unsigned long long>(rs.ledger.shed),
              static_cast<unsigned long long>(rs.ledger.refused),
              static_cast<unsigned long long>(rs.ledger.reset));
  gates.Check("ledger gate (served+shed+refused+reset == offered)", rs.ledger.Exact());
  std::printf("keepalive reuses=%llu\n",
              static_cast<unsigned long long>(rs.keepalive_reuses));
  const auto& tbl = cl.server->conn_table();
  std::printf("server table: peak_live=%zu capacity=%zu rehashes=%llu max_probe=%zu "
              "inserts=%llu erases=%llu\n",
              tbl.peak_live(), tbl.capacity(),
              static_cast<unsigned long long>(tbl.rehashes()), tbl.max_probe(),
              static_cast<unsigned long long>(tbl.inserts()),
              static_cast<unsigned long long>(tbl.erases()));
  std::printf("server wheel: scheduled=%llu fired=%llu cancelled=%llu cascades=%llu "
              "armed_end=%zu\n",
              static_cast<unsigned long long>(cl.server->wheel().scheduled()),
              static_cast<unsigned long long>(cl.server->wheel().fired()),
              static_cast<unsigned long long>(cl.server->wheel().cancelled()),
              static_cast<unsigned long long>(cl.server->wheel().cascades()),
              cl.server->wheel().armed());
  std::printf("server closes: active_fin=%llu passive_fin=%llu reset=%llu "
              "connect_timeout=%llu half_open_expiry=%llu retx_abort=%llu\n",
              static_cast<unsigned long long>(cl.server->closes(net::CloseCause::kActiveFin)),
              static_cast<unsigned long long>(cl.server->closes(net::CloseCause::kPassiveFin)),
              static_cast<unsigned long long>(cl.server->closes(net::CloseCause::kReset)),
              static_cast<unsigned long long>(cl.server->closes(net::CloseCause::kConnectTimeout)),
              static_cast<unsigned long long>(cl.server->closes(net::CloseCause::kHalfOpenExpiry)),
              static_cast<unsigned long long>(cl.server->closes(net::CloseCause::kRetxAbort)));
  std::printf("syn cookies: sent=%llu accepts=%llu rejects=%llu evicted=%llu "
              "blackholed=%llu\n",
              static_cast<unsigned long long>(cl.server->syn_cookies_sent()),
              static_cast<unsigned long long>(cl.server->syn_cookie_accepts()),
              static_cast<unsigned long long>(cl.server->syn_cookie_rejects()),
              static_cast<unsigned long long>(cl.server->half_open_evicted()),
              static_cast<unsigned long long>(cl.blackholed));
  if (clean) {
    gates.Check("sustain gate (peak established >= target)",
                cl.server->peak_established() >= holders && rs.holder_failures == 0);
  } else {
    std::uint64_t base_avg =
        BucketAvg(rs.served_buckets, sz.bucket, ramp_end, attack_start);
    std::uint64_t attack_avg =
        BucketAvg(rs.served_buckets, sz.bucket, attack_start, attack_end);
    std::printf("goodput/bucket: baseline=%llu attack=%llu\n",
                static_cast<unsigned long long>(base_avg),
                static_cast<unsigned long long>(attack_avg));
    gates.Check("attack goodput gate (>=50%% of baseline)",
                attack_avg * 2 >= base_avg);
    // Recovery: first full bucket after the attack at >=90% of baseline.
    std::size_t rb0 = static_cast<std::size_t>(attack_end / sz.bucket) + 1;
    std::size_t rb1 = static_cast<std::size_t>(run_end / sz.bucket);
    bool recovered = false;
    for (std::size_t b = rb0; b < rb1; ++b) {
      std::uint64_t got = b < rs.served_buckets.size() ? rs.served_buckets[b] : 0;
      if (got * 10 >= base_avg * 9) {
        Cycles window = static_cast<Cycles>(b + 1) * sz.bucket - attack_end;
        std::printf("recovered to >=90%% of baseline %llu cycles after attack end\n",
                    static_cast<unsigned long long>(window));
        recovered = true;
        break;
      }
    }
    gates.Check("recovery gate (>=90%% of baseline within the window)", recovered);
  }
  bool no_leaks = tbl.live() == 0 && cl.server->established_count() == 0 &&
                  cl.server->half_open_count() == 0 &&
                  cl.server->time_wait_count() == 0 &&
                  cl.server->wheel().armed() == 0 &&
                  tbl.inserts() == tbl.erases();
  if (!no_leaks) {
    std::printf("leak detail: live=%zu est=%d half_open=%d time_wait=%d "
                "wheel_armed=%zu inserts=%llu erases=%llu\n",
                tbl.live(), cl.server->established_count(),
                cl.server->half_open_count(), cl.server->time_wait_count(),
                cl.server->wheel().armed(),
                static_cast<unsigned long long>(tbl.inserts()),
                static_cast<unsigned long long>(tbl.erases()));
  }
  gates.Check("leak gate (table, counters, and wheel fully drained)", no_leaks);
  *finished = true;
}

bool RunOne(Attack attack, const Sizes& sz, std::uint64_t chaos_seed,
            bench::TraceSession& trace_session) {
  std::printf("\n--- %s ---\n", AttackName(attack));
  trace_session.BeginRun(AttackName(attack));
  recover::RecoveryConfig rc;
  rc.tcp_rto = 2'000'000;  // no loss here; don't let handshake queueing look like it
  recover::ScopedRecoveryConfig scoped_rc(rc);
  Cluster cl(/*lifecycle_clients=*/true);
  RunState rs(cl.exec);
  rs.bucket = sz.bucket;
  rs.pools.resize(kClientStacks);
  rs.held.resize(kClientStacks);
  apps::HttpServer http(cl.m, *cl.server, 80, nullptr, /*request_cost=*/8'000);
  apps::HttpServer::KeepAlive ka;
  ka.enabled = true;
  ka.max_requests = 64;
  ka.idle_timeout = 0;  // holders are closed by clients; idle-close is unit-tested
  ka.max_pipeline = 8;
  ka.header_deadline = 1'500'000;
  http.SetKeepAlive(ka);
  cl.exec.Spawn(http.Serve());
  Gates gates;
  bool finished = false;
  cl.exec.Spawn(Scenario(cl, rs, sz, attack, chaos_seed, gates, &finished));
  Cycles elapsed = cl.exec.Run();
  std::printf("http: served=%llu shed_progress=%llu idle_closes=%llu "
              "budget_closes=%llu pipeline_closes=%llu bad=%llu\n",
              static_cast<unsigned long long>(http.requests_served()),
              static_cast<unsigned long long>(http.shed_progress()),
              static_cast<unsigned long long>(http.idle_closes()),
              static_cast<unsigned long long>(http.budget_closes()),
              static_cast<unsigned long long>(http.pipeline_closes()),
              static_cast<unsigned long long>(http.bad_requests()));
  std::printf("elapsed=%llu cycles\n", static_cast<unsigned long long>(elapsed));
  gates.Check("run completion gate (scenario finished and drained)", finished);
  return gates.ok;
}

}  // namespace
}  // namespace mk

int main(int argc, char** argv) {
  using namespace mk;
  bench::TraceSession trace_session(bench::ParseTraceFlags(argc, argv));
  bench::ParseThreadsFlag(argc, argv);  // single-domain bench: host threads cannot change its schedule (sim/parallel.h)
  bool quick = false;
  std::uint64_t chaos_seed = 0;
  std::string only = "all";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(arg, "--chaos-seed=", 13) == 0) {
      chaos_seed = bench::ParseIntFlag("--chaos-seed", arg + 13, 0, UINT64_MAX);
    } else if (std::strncmp(arg, "--attack=", 9) == 0) {
      only = arg + 9;
    } else {
      std::fprintf(stderr,
                   "usage: conn_scale [--quick] [--chaos-seed=N] "
                   "[--attack=clean|synflood|slowloris|churn|all]\n");
      return 2;
    }
  }
  Sizes sz = quick ? QuickSizes() : Sizes();
  bench::PrintHeader("Connection-scale serving: timer-wheel lifecycle, keep-alive, attacks");
  std::printf("mode=%s attack=%s chaos_seed=%llu holders=%d attack_holders=%d\n",
              quick ? "quick" : "full", only.c_str(),
              static_cast<unsigned long long>(chaos_seed), sz.holders,
              sz.attack_holders);
  bool ok = true;
  auto want = [&only](const char* name) { return only == "all" || only == name; };
  if (want("clean")) {
    ok = RunOne(Attack::kClean, sz, chaos_seed, trace_session) && ok;
  }
  if (want("synflood")) {
    ok = RunOne(Attack::kSynFlood, sz, chaos_seed, trace_session) && ok;
  }
  if (want("slowloris")) {
    ok = RunOne(Attack::kSlowloris, sz, chaos_seed, trace_session) && ok;
  }
  if (want("churn")) {
    ok = RunOne(Attack::kChurn, sz, chaos_seed, trace_session) && ok;
  }
  std::printf("\noverall: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
