// conn_keepalive: one serving core (Amd2x2) running lifecycle TCP and the
// keep-alive HttpServer. Set-up ramps a large idle connection population;
// the run offers open-loop keep-alive requests at the nominal rate with
// bursty open/close connection churn on top, then a fixed rate ladder, and
// tears every connection down. The timer wheel, ConnTable and the
// executor's far heap carry the work; single domain, no DB.
#include <memory>
#include <string>
#include <vector>

#include "apps/httpd.h"
#include "harness.h"
#include "hw/platform.h"
#include "net/conn_table.h"
#include "net/timer_wheel.h"
#include "recover/config.h"

namespace perfbench {
namespace {

constexpr int kClientCore = 0;
constexpr int kChurnCore = 1;
constexpr int kDriverCore = 2;
constexpr int kServerCore = 3;
constexpr Cycles kDriverCost = 1400;
constexpr int kClientStacks = 8;
constexpr int kHeld = 32'000;  // idle keep-alive connections held open
constexpr Cycles kConnectTimeout = 6'000'000;
constexpr double kNominalRate = 15.0;  // keep-alive requests per Mcycle
constexpr int kNominalRequests = 5000;
constexpr double kLadder[] = {1.5, 2.0, 2.5, 3.0};
constexpr int kRungRequests = 1000;
constexpr Cycles kChurnGap = 80'000;  // peak open/close interval
// Fixed once: 14x the nominal p99 of the default seed (87k cycles). Keep-alive
// requests stay fast until the serving core saturates, so the limit sits
// across the cliff between the x2.00 and x2.50 rungs.
constexpr Cycles kP99Limit = 1'200'000;
constexpr mk::net::Ipv4Addr kServerIp = mk::net::MakeIp(10, 0, 0, 1);
const mk::net::MacAddr kServerMac{2, 0, 0, 0, 0, 1};

struct Churn {
  std::uint64_t offered = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  int live = 0;
};

struct Rig {
  Rig() : m(exec, mk::hw::Amd2x2()) {
    mk::net::TcpLifecycle server_lc;
    server_lc.enabled = true;
    server_lc.time_wait = 400'000;
    server_lc.syn_rcvd_timeout = 1'000'000;
    server_lc.max_half_open = 64;
    server = std::make_unique<mk::net::NetStack>(m, kServerCore, kServerIp, kServerMac);
    server->SetLifecycle(server_lc);
    mk::net::TcpLifecycle lc;
    lc.enabled = true;
    lc.time_wait = 200'000;
    for (int i = 0; i <= kClientStacks; ++i) {  // the last stack drives the churn
      const auto n = static_cast<std::uint8_t>(1 + i);
      const mk::net::Ipv4Addr ip = mk::net::MakeIp(10, 0, 1, n);
      const mk::net::MacAddr mac{2, 0, 0, 1, 0, n};
      auto st = std::make_unique<mk::net::NetStack>(
          m, i == kClientStacks ? kChurnCore : kClientCore, ip, mac, FreeCosts());
      st->SetLifecycle(lc);
      st->AddArp(kServerIp, kServerMac);
      server->AddArp(ip, mac);
      clients.push_back(std::move(st));
    }
    // Frames transit the driver core and are routed by destination address.
    auto route = [this](mk::net::Packet p) -> Task<> {
      co_await m.Compute(kDriverCore, kDriverCost);
      mk::net::ParseInfo info;
      auto parsed = mk::net::ParseFrame(p, &info);
      if (!parsed) {
        ++blackholed;
        co_return;
      }
      if (parsed->ip.dst == kServerIp) {
        if (spans != nullptr && spans->captured.size() < 512) {
          spans->captured.push_back(p);
        }
        const Cycles t0 = exec.now();
        co_await server->Input(std::move(p));
        if (spans != nullptr) {
          spans->stack_input.push_back(exec.now() - t0);
          spans->stack_busy += static_cast<double>(exec.now() - t0);
        }
        co_return;
      }
      for (auto& c : clients) {
        if (c->ip() == parsed->ip.dst) {
          co_await c->Input(std::move(p));
          co_return;
        }
      }
      ++blackholed;
    };
    server->SetOutput(route);
    for (auto& c : clients) {
      c->SetOutput(route);
    }
  }

  mk::sim::Executor exec;
  mk::hw::Machine m;
  std::unique_ptr<mk::net::NetStack> server;
  std::vector<std::unique_ptr<mk::net::NetStack>> clients;
  std::uint64_t blackholed = 0;
  SpanSet* spans = nullptr;
  std::vector<std::vector<mk::net::NetStack::TcpConn*>> held{kClientStacks};
  int ramp_failures = 0;
};

// Opens `count` held connections from client stack `idx`, at most 8
// handshakes in flight.
Task<> Ramp(Rig& rig, int idx, int count, int* stacks_left) {
  mk::sim::Semaphore slots(rig.exec, 8);
  int pending = count;
  mk::sim::Event done(rig.exec);
  for (int i = 0; i < count; ++i) {
    co_await slots.Acquire();
    rig.exec.Spawn([](Rig& r, int s, mk::sim::Semaphore& sem, int& left,
                      mk::sim::Event& ev) -> Task<> {
      auto* conn = co_await r.clients[static_cast<std::size_t>(s)]->TcpConnect(
          kServerIp, 80, kConnectTimeout);
      if (conn == nullptr) {
        ++r.ramp_failures;
      } else {
        r.held[static_cast<std::size_t>(s)].push_back(conn);
      }
      sem.Release();
      if (--left == 0) {
        ev.Signal();
      }
    }(rig, idx, slots, pending, done));
  }
  while (pending > 0) {
    co_await done.Wait();
  }
  --*stacks_left;
}

// Closes every held connection of client stack `idx`, 32 at a time.
Task<> CloseHeld(Rig& rig, int idx, int* stacks_left, mk::sim::Event* all_closed) {
  mk::sim::Semaphore slots(rig.exec, 32);
  auto& stack = *rig.clients[static_cast<std::size_t>(idx)];
  auto& held = rig.held[static_cast<std::size_t>(idx)];
  int pending = static_cast<int>(held.size());
  mk::sim::Event done(rig.exec);
  for (auto* conn : held) {
    co_await slots.Acquire();
    rig.exec.Spawn([](mk::net::NetStack& st, mk::net::NetStack::TcpConn* c,
                      mk::sim::Semaphore& sem, int& left, mk::sim::Event& ev) -> Task<> {
      co_await st.TcpClose(*c);
      st.Release(c);
      sem.Release();
      if (--left == 0) {
        ev.Signal();
      }
    }(stack, conn, slots, pending, done));
  }
  while (pending > 0) {
    co_await done.Wait();
  }
  held.clear();
  if (--*stacks_left == 0) {
    all_closed->Signal();
  }
}

// Bursty open/close storm over [from, until): full handshake, immediate
// close; square-wave pacing (peak for a third of each 8M-cycle period).
Task<> ChurnConn(Rig& rig, Churn& ch) {
  ++ch.live;
  auto& st = *rig.clients.back();
  auto* conn = co_await st.TcpConnect(kServerIp, 80, kConnectTimeout);
  if (conn == nullptr) {
    ++ch.failed;
  } else {
    co_await st.TcpClose(*conn);
    st.Release(conn);
    ++ch.ok;
  }
  --ch.live;
}

Task<> ChurnGen(Rig& rig, Churn& ch, Cycles from, Cycles until) {
  if (from > rig.exec.now()) {
    co_await rig.exec.Delay(from - rig.exec.now());
  }
  constexpr Cycles kPeriod = 8'000'000;
  while (rig.exec.now() < until) {
    ++ch.offered;
    rig.exec.Spawn(ChurnConn(rig, ch));
    const bool peak = (rig.exec.now() - from) % kPeriod < kPeriod / 3;
    co_await rig.exec.Delay(peak ? kChurnGap : 4 * kChurnGap);
  }
}

Request MakeGet(int, mk::sim::Rng& rng) {
  Request r;
  r.text = "GET /?u=" + std::to_string(rng.Below(1'000'000)) +
           " HTTP/1.1\r\nHost: bench\r\n\r\n";
  return r;
}

struct Nop {};

}  // namespace

PassResult RunConnKeepalive(const PassConfig& cfg) {
  PassResult out;
  Stopwatch setup;
  // No loss here: keep handshake queueing from looking like it.
  mk::recover::RecoveryConfig rc;
  rc.tcp_rto = 2'000'000;
  mk::recover::ScopedRecoveryConfig scoped_rc(rc);
  std::vector<Phase> phases(1 + std::size(kLadder));
  mk::sim::Rng rng(cfg.seed);
  phases[0].name = "nominal";
  phases[0].rate = kNominalRate;
  phases[0].requests = ArrivalSchedule(rng, kNominalRequests, kNominalRate, MakeGet);
  for (std::size_t i = 0; i < std::size(kLadder); ++i) {
    Phase& p = phases[i + 1];
    p.name = Fmt("x%.2f", kLadder[i]);
    p.rate = kNominalRate * kLadder[i];
    p.requests = ArrivalSchedule(rng, kRungRequests, p.rate, MakeGet);
  }

  Rig rig;
  SpanSet spans;
  mk::apps::HttpServer http(rig.m, *rig.server, 80, nullptr, /*request_cost=*/8'000);
  mk::apps::HttpServer::KeepAlive ka;
  ka.enabled = true;
  ka.max_requests = 64;
  ka.idle_timeout = 0;  // held connections are closed by their clients
  ka.max_pipeline = 8;
  ka.header_deadline = 1'500'000;
  http.SetKeepAlive(ka);
  rig.exec.Spawn(http.Serve());
  int ramping = kClientStacks;
  for (int i = 0; i < kClientStacks; ++i) {
    rig.exec.Spawn(Ramp(rig, i, kHeld / kClientStacks, &ramping));
  }
  rig.exec.Run();
  const std::size_t live_at_setup = rig.exec.live_tasks();
  rig.spans = cfg.traced ? &spans : nullptr;  // spans cover the timed run only

  std::vector<mk::net::NetStack*> load_stacks;
  for (int i = 0; i < kClientStacks; ++i) {
    load_stacks.push_back(rig.clients[static_cast<std::size_t>(i)].get());
  }
  ClientConfig ccfg;
  ccfg.server_ip = kServerIp;
  ccfg.deadline = 8'000'000;
  ccfg.keep_alive = true;
  Client gen(rig.exec, load_stacks, ccfg);
  gen.Plan(&phases, rig.exec.now());
  Churn churn;
  const Cycles churn_end = phases[0].start + phases[0].requests.back().due;
  int closing = kClientStacks;
  mk::sim::Event all_closed(rig.exec);
  gen.on_done = [&]() -> Task<> {
    co_await gen.ClosePools();
    for (int i = 0; i < kClientStacks; ++i) {
      rig.exec.Spawn(CloseHeld(rig, i, &closing, &all_closed));
    }
    while (closing > 0) {
      co_await all_closed.Wait();
    }
    // Leave time for FIN/ACK exchanges and TIME_WAIT reaps on both sides.
    co_await rig.exec.Delay(3'000'000);
  };
  std::vector<LayerCounters> snaps;
  rig.exec.Spawn(SnapshotLoop(rig.exec, gen.boundaries(), [&] {
    return LayerCounters{
        {"stack.drops", static_cast<double>(rig.server->drops())},
        {"httpd.drops", static_cast<double>(http.shed_progress() + http.bad_requests())},
        {"stack.busy", spans.stack_busy}};
  }, &snaps));
  rig.m.counters().Reset();
  const std::uint64_t events0 = rig.exec.events_dispatched();
  rig.exec.Spawn(ChurnGen(rig, churn, phases[0].start, churn_end));
  rig.exec.Spawn(gen.Run());
  out.setup_s = setup.Seconds();

  TimedRun(rig.exec, cfg, &out);
  out.events = rig.exec.events_dispatched() - events0;

  MergeSnapshots({&snaps}, &phases);
  const KneeResult knee = FindKnee(phases, kP99Limit);
  AddServingMetrics(phases, knee, &out);
  NoteLadder(phases, kP99Limit, knee, &out);
  out.attempted += churn.offered;
  out.failed += churn.failed;
  out.Note(Fmt("held connections: %d (ramp failures %d); churn: offered=%llu ok=%llu failed=%llu; "
               "keep-alive reuses=%llu",
               kHeld, rig.ramp_failures, static_cast<unsigned long long>(churn.offered),
               static_cast<unsigned long long>(churn.ok),
               static_cast<unsigned long long>(churn.failed),
               static_cast<unsigned long long>(gen.keepalive_reuses())));

  const mk::net::NetStack& srv = *rig.server;
  const auto& tbl = srv.conn_table();
  out.Check("ramp held every connection", rig.ramp_failures == 0 &&
                                              srv.peak_established() >= kHeld);
  out.Check("churn ledger exact (ok + failed == offered)",
            churn.ok + churn.failed == churn.offered && churn.live == 0);
  out.Check("no leaked connection, table entry or wheel timer after teardown",
            tbl.live() == 0 && srv.established_count() == 0 && srv.half_open_count() == 0 &&
                srv.time_wait_count() == 0 && srv.wheel().armed() == 0 &&
                tbl.inserts() == tbl.erases());
  CheckDrained({&rig.exec}, &out);
  out.Check("no task outlives the load (only parked service loops remain)",
            gen.finished() && rig.exec.live_tasks() <= live_at_setup);

  out.Sim("exec.events", static_cast<double>(out.events), "count");
  AddHwCounters({&rig.m}, &out);
  AddStackCounters({rig.server.get()}, &out);
  out.Sim("httpd.served", static_cast<double>(http.requests_served()), "count");
  out.Sim("httpd.shed", static_cast<double>(http.shed_progress() + http.shed_queue_full() +
                                            http.shed_deadline()),
          "count");
  out.Sim("httpd.bad", static_cast<double>(http.bad_requests()), "count");

  if (cfg.traced) {
    AddNetSpans({&spans}, &out);
    AddFrameHostTimings(spans.captured, nullptr, &out);
    AddFramerHostTiming(phases, &out);
    AddTracerMetrics(&out);
    // Timer wheel: arm a batch at RTO/TIME_WAIT-like delays, cancel it.
    {
      mk::sim::Executor wexec;
      mk::net::TimerWheel wheel(wexec);
      std::vector<mk::net::TimerWheel::TimerId> ids(4096);
      out.Observe("wheel.host_ns_per_op", HostNsPerOp([&] {
                    for (std::size_t i = 0; i < ids.size(); ++i) {
                      ids[i] = wheel.Schedule(200'000 + 1'000 * (i % 8192), [] {});
                    }
                    for (auto id : ids) {
                      wheel.Cancel(id);
                    }
                  }, 10) / (2.0 * static_cast<double>(ids.size())),
                  "ns");
    }
    // ConnTable: insert, find and erase a batch of flow keys.
    {
      mk::net::ConnTable<Nop> table;
      std::vector<std::uint64_t> keys;
      for (int i = 0; i < 4096; ++i) {
        keys.push_back(mk::net::ConnKey(mk::net::MakeIp(10, 0, 1, static_cast<std::uint8_t>(1 + i % 8)),
                                        static_cast<std::uint16_t>(10000 + i), 80));
      }
      out.Observe("conntab.host_ns_per_op", HostNsPerOp([&] {
                    for (auto k : keys) {
                      table.Insert(k, std::make_unique<Nop>());
                    }
                    for (auto k : keys) {
                      (void)table.Find(k);
                    }
                    for (auto k : keys) {
                      (void)table.Erase(k);
                    }
                  }, 10) / (3.0 * static_cast<double>(keys.size())),
                  "ns");
    }
  }
  out.Seal({rig.exec.now(), rig.blackholed});
  return out;
}

}  // namespace perfbench
