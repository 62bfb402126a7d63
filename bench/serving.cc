#include "serving.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "apps/db.h"
#include "apps/dbshard.h"
#include "apps/httpd.h"

namespace mk::bench {
namespace {

// Every serving bench draws its request stream from this seed.
constexpr std::uint64_t kRequestSeed = 42;

constexpr net::Ipv4Addr kServerIp = net::MakeIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kClientIp = net::MakeIp(10, 0, 0, 77);
const net::MacAddr kServerMac{2, 0, 0, 0, 0, 1};
const net::MacAddr kClientMac{2, 0, 0, 0, 0, 77};

bool FullOkResponse(const std::string& resp) {
  if (resp.rfind("HTTP/1.0 200", 0) != 0) {
    return false;
  }
  const std::size_t hdr_end = resp.find("\r\n\r\n");
  if (hdr_end == std::string::npos) {
    return false;
  }
  const std::size_t cl = resp.find("Content-Length: ");
  if (cl == std::string::npos || cl > hdr_end) {
    return false;
  }
  const std::size_t len = std::strtoul(resp.c_str() + cl + 16, nullptr, 10);
  return resp.size() - (hdr_end + 4) >= len;
}

// One HTTP request, open loop, with client-side retry (see Generator).
Task<> OneRequest(sim::Executor& exec, net::NetStack& client, net::Ipv4Addr server,
                  Request req, const Mix& mix, LoadStats& st) {
  const Cycles start = exec.now();
  const Cycles deadline = start + mix.request_deadline;
  ++st.outstanding;
  bool ok = false;
  std::string resp;
  bool first_attempt = true;
  Cycles backoff = 100'000;
  while (!ok && exec.now() < deadline) {
    if (!first_attempt) {
      ++st.retries;
      // Back off before re-trying: immediate retries of shed (503) attempts
      // amplify a transient overload into a sustained one.
      co_await exec.Delay(std::min(backoff, deadline - exec.now()));
      backoff = std::min<Cycles>(backoff * 2, 400'000);
      if (exec.now() >= deadline) {
        break;
      }
    }
    first_attempt = false;
    const Cycles attempt_deadline =
        std::min(deadline, exec.now() + mix.attempt_timeout);
    net::NetStack::TcpConn* conn =
        co_await client.TcpConnect(server, 80, attempt_deadline - exec.now());
    if (conn == nullptr) {
      ++st.fail_connect;
      continue;
    }
    co_await client.TcpSend(*conn, "GET " + req.target + " HTTP/1.0\r\n\r\n");
    resp.clear();
    while (true) {
      while (!conn->rx.empty()) {
        resp.push_back(static_cast<char>(conn->rx.front()));
        conn->rx.pop_front();
      }
      if (conn->peer_closed && FullOkResponse(resp)) {
        ok = true;
        break;
      }
      if (conn->peer_closed) {
        if (resp.empty()) {
          ++st.fail_rst;
        } else if (resp.rfind("HTTP/1.0 503", 0) == 0) {
          ++st.fail_503;
        } else {
          ++st.fail_other;
        }
        break;  // RST, shed, or truncation: retry
      }
      const Cycles now = exec.now();
      if (now >= attempt_deadline) {
        ++st.fail_other;
        break;
      }
      co_await conn->readable.WaitTimeout(attempt_deadline - now);
    }
    co_await client.TcpClose(*conn);
  }
  if (ok) {
    ++st.completed;
    st.latencies.push_back(exec.now() - start);
    st.completions.push_back(exec.now());
    if (req.on_ok) {
      req.on_ok(resp.substr(resp.find("\r\n\r\n") + 4));
    }
  } else {
    ++st.shed;
  }
  --st.outstanding;
  if (st.launching_done && st.outstanding == 0) {
    st.finished = true;
    st.all_done.Signal();
  }
}

// The fleet's part of the NIC config: one queue per shard on a 10 Gb/s
// wire, queue i's interrupts on web core 4i.
net::SimNic::Config FleetNic(const hw::Machine& m, int shards,
                             net::SimNic::Config cfg) {
  cfg.gbps = 10.0;
  cfg.queues = shards;
  cfg.irq_latency = m.cost().ipi_wire;
  for (int i = 0; i < shards; ++i) {
    cfg.irq_cores.push_back(4 * i);
  }
  return cfg;
}

// Drains frames the server NIC transmitted into the client cluster's stack
// until *stop.
Task<> WireSink(net::SimNic& nic, net::NetStack& client, const bool* stop) {
  while (!*stop) {
    net::Packet p;
    while (nic.WirePop(&p)) {
      co_await client.Input(std::move(p));
    }
    if (!*stop) {
      co_await nic.wire_out_ready().Wait();
    }
  }
}

// Ends a run: once every request has completed or been shed, sets *stop
// (the shards' RX loops and the wire sink return), then awaits `shutdown`
// if given.
Task<> Supervisor(LoadStats& st, net::SimNic& nic, bool* stop,
                  std::function<Task<>()> shutdown) {
  while (!st.finished) {
    co_await st.all_done.Wait();
  }
  *stop = true;
  nic.wire_out_ready().Signal();  // unblock the sink
  if (shutdown) {
    co_await shutdown();
  }
}

}  // namespace

net::StackCosts FreeCosts() {
  net::StackCosts c;
  c.per_packet_in = 0;
  c.per_packet_out = 0;
  c.per_byte_checksum = 0;
  return c;
}

System::System(const hw::PlatformSpec& spec)
    : machine(exec, spec), drivers(kernel::CpuDriver::BootAll(machine)),
      skb(machine), sys(machine, skb, drivers) {
  skb.PopulateFromHardware();
  exec.Spawn(skb.MeasureUrpcLatencies());
  exec.Run();
  sys.Boot();
}

recover::RecoveryConfig ServingRecoveryConfig() {
  recover::RecoveryConfig rcfg;
  // The TCP retransmit timeout must sit above the worst frame-to-ACK latency
  // a loaded survivor exhibits (on a rack, including four switch-port
  // crossings), or timers fire on delayed-but-not-lost segments: every
  // spurious resend adds load, which adds latency, which fires more timers —
  // congestion collapse with zero frames dropped. The stock 200k RTO is
  // tuned for lightly loaded link tests; these workloads queue several
  // hundred k cycles of stack work on a post-kill survivor. (Consulted only
  // while an injector is installed, so the no-kill baselines are oblivious.)
  rcfg.tcp_rto = 1'000'000;
  // With the 1M base RTO, the stock 8-round doubling backoff would keep a
  // dead-peer connection's timer alive for ~511M cycles of idle sim time
  // after the workload drains. Recovery needs exactly one round (the first
  // resend lands on a survivor and draws the RST), so four is generous.
  rcfg.tcp_max_retx = 4;
  return rcfg;
}

Task<> AttachShard(hw::Machine& m, net::SimNic& nic, int queue,
                   net::NetStack& stack, const bool* stop) {
  const int core = stack.core();
  stack.SetOutput([&m, &nic, core, queue](net::Packet p) -> Task<> {
    co_await m.Compute(core, kDriverFrameCost);
    (void)co_await nic.DriverTxPush(core, std::move(p), queue);
  });
  return nic.ServeRx(core, queue, kDriverFrameCost,
                     [&stack](net::Packet p) { return stack.Input(std::move(p)); },
                     stop);
}

RequestSource StaticPage() {
  return [](sim::Rng&) { return Request{"/index.html", nullptr}; };
}

RequestSource TpcwBrowse(int items) {
  return [items](sim::Rng& prng) {
    return Request{
        "/query?sql=" + FormEncode(apps::TpcwQuery(static_cast<int>(prng.Below(
                            static_cast<std::uint64_t>(items))))),
        nullptr};
  };
}

std::string FormEncode(std::string sql) {
  std::replace(sql.begin(), sql.end(), ' ', '+');
  return sql;
}

Task<> Generator(sim::Executor& exec, net::NetStack& client, net::Ipv4Addr server,
                 int total, Cycles interval, const Mix& mix, LoadStats& st,
                 RequestSource source) {
  sim::Rng prng(kRequestSeed);
  for (int i = 0; i < total; ++i) {
    ++st.launched;
    exec.Spawn(OneRequest(exec, client, server, source(prng), mix, st));
    co_await exec.Delay(interval);
  }
  st.launching_done = true;
  if (st.outstanding == 0) {
    st.finished = true;
    st.all_done.Signal();
  }
}

Fleet::Fleet(hw::Machine& m, int shards, net::SimNic::Config nic)
    : m_(m), nic_(m, FleetNic(m, shards, std::move(nic))),
      client_(m, m.spec().num_cores() - 1, kClientIp, kClientMac, FreeCosts()) {
  client_.AddArp(kServerIp, kServerMac);
  client_.SetOutput(
      [this](net::Packet p) -> Task<> { co_await nic_.InjectFromWire(std::move(p)); });
}

void Fleet::AddShard(Shard shard) {
  const int i = static_cast<int>(stacks_.size());
  auto stack = std::make_unique<net::NetStack>(m_, 4 * i, kServerIp, kServerMac);
  stack->AddArp(kClientIp, kClientMac);
  auto server = std::make_unique<apps::HttpServer>(m_, *stack, 80, std::move(shard.query));
  server->SetDbExec(std::move(shard.exec));
  server->SetAdmission(shard.admission);
  m_.exec().Spawn(server->Serve());
  m_.exec().Spawn(AttachShard(m_, nic_, i, *stack, &stop_));
  stacks_.push_back(std::move(stack));
  servers_.push_back(std::move(server));
}

Ledger Fleet::Run(int requests_per_shard, const Mix& mix, RequestSource source,
                  std::function<Task<>()> shutdown) {
  sim::Executor& exec = m_.exec();
  const int shards = nic_.num_queues();
  exec.Spawn(WireSink(nic_, client_, &stop_));
  LoadStats st(exec);
  exec.Spawn(Generator(exec, client_, kServerIp, requests_per_shard * shards,
                       mix.interval_per_shard / static_cast<Cycles>(shards), mix, st,
                       std::move(source)));
  exec.Spawn(Supervisor(st, nic_, &stop_, std::move(shutdown)));
  exec.Run();
  return st;
}

double RunWebServer(WebScenario sc) {
  // The paper's placement on the 2x2: services (and here the client
  // cluster's stack) on core 0, database on core 1, driver on core 2, web
  // server on core 3.
  constexpr int kServicesCore = 0;
  constexpr int kDbCore = 1;
  constexpr int kDriverCore = 2;
  constexpr int kServerCore = 3;
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd2x2());

  // Server stack: Barrelfish charges the plain stack; the Linux comparator
  // adds kernel-crossing and copy costs per packet.
  net::StackCosts server_costs;
  if (sc.linux_mode) {
    server_costs.per_packet_in += 7000;   // softirq + socket locking + wakeup
    server_costs.per_packet_out += 7000;  // syscall + kernel buffer copy path
    server_costs.per_byte_checksum = 1.0; // checksum + user/kernel copy
  }
  net::NetStack server(m, kServerCore, kServerIp, kServerMac, server_costs);
  net::NetStack client(m, kServicesCore, kClientIp, kClientMac, FreeCosts());
  server.AddArp(kClientIp, kClientMac);
  client.AddArp(kServerIp, kServerMac);

  // Frames pass through the driver core: per-packet driver work plus the
  // URPC hop (Barrelfish) or the in-kernel path (Linux, cheaper hop but the
  // kernel costs are charged in the stack above).
  const Cycles driver_cost = sc.linux_mode ? 900 : 1400;
  server.SetOutput([&m, &client, driver_cost](net::Packet p) -> Task<> {
    co_await m.Compute(kDriverCore, driver_cost);
    co_await client.Input(std::move(p));
  });
  client.SetOutput([&m, &server, driver_cost](net::Packet p) -> Task<> {
    co_await m.Compute(kDriverCore, driver_cost);
    co_await server.Input(std::move(p));
  });

  // The database process: a one-replica cluster, queried over URPC. One
  // outstanding RPC at a time, so concurrent HTTP handlers serialize on it
  // (the SQLite-core bottleneck). Static runs never query it, but still
  // build it: its channels take their place in simulated memory either way.
  constexpr int kDbItems = 30000;
  apps::Database source;
  if (sc.use_db) {
    apps::PopulateTpcw(&source, kDbItems);
  }
  apps::DbReplicaCluster db(m, source, {{kServerCore, kDbCore}});
  apps::HttpServer http(
      m, server, 80,
      [&db](std::string sql) { return db.Query(0, std::move(sql)); },
      sc.linux_mode ? 68000 : 60000);

  exec.Spawn(http.Serve());
  if (sc.use_db) {
    exec.Spawn(db.Serve(0));
  }

  // httperf-like closed-loop clients.
  const int kClients = 8;
  const int kRequestsPerClient = sc.use_db ? 8 : 25;
  for (int c = 0; c < kClients; ++c) {
    exec.Spawn([](net::NetStack& cl, bool use_db, int requests,
                  std::uint64_t seed) -> Task<> {
      sim::Rng prng(seed);
      for (int r = 0; r < requests; ++r) {
        net::NetStack::TcpConn* conn = co_await cl.TcpConnect(kServerIp, 80);
        std::string target = "/index.html";
        if (use_db) {
          target = "/query?sql=" + FormEncode(apps::TpcwQuery(
                                       static_cast<int>(prng.Below(kDbItems))));
        }
        co_await cl.TcpSend(*conn, "GET " + target + " HTTP/1.0\r\n\r\n");
        while (!conn->peer_closed) {
          auto chunk = co_await conn->Read();
          if (chunk.empty()) {
            break;
          }
        }
        co_await cl.TcpClose(*conn);
      }
    }(client, sc.use_db, kRequestsPerClient, 1000 + c));
  }
  Cycles elapsed = exec.Run();
  double seconds = static_cast<double>(elapsed) / (m.spec().clock_ghz * 1e9);
  return kClients * kRequestsPerClient / seconds;
}

Cycles Percentile(std::vector<Cycles> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
}

std::vector<int> Bucketize(const std::vector<Cycles>& completions, Cycles t0,
                           Cycles window, Cycles bucket) {
  std::vector<int> buckets(static_cast<std::size_t>(window / bucket), 0);
  for (Cycles c : completions) {
    const std::size_t b = static_cast<std::size_t>((c - t0) / bucket);
    if (b < buckets.size()) {
      ++buckets[b];
    }
  }
  return buckets;
}

void PrintBuckets(const std::vector<int>& buckets, Cycles bucket,
                  const char* origin) {
  std::printf("completions per %.1fM-cycle bucket%s:\n",
              static_cast<double>(bucket) / 1e6, origin);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    std::printf("%4d%s", buckets[b], (b + 1) % 10 == 0 ? "\n" : " ");
  }
  if (buckets.size() % 10 != 0) {
    std::printf("\n");
  }
}

Recovery AnalyzeRecovery(const std::vector<int>& buckets, Cycles bucket,
                         Cycles kill_at, double frac) {
  Recovery r;
  const std::size_t kill_bucket = static_cast<std::size_t>(kill_at / bucket);
  const std::size_t last = buckets.empty() ? 0 : buckets.size() - 1;
  if (kill_bucket < 2 || kill_bucket >= last) {
    return r;
  }
  for (std::size_t b = 1; b < kill_bucket; ++b) {
    r.prekill += buckets[b];
  }
  r.prekill /= static_cast<double>(kill_bucket - 1);
  r.threshold = r.prekill * frac;
  for (std::size_t b = kill_bucket; b < last; ++b) {
    double sum = 0;
    bool hole = false;
    for (std::size_t b2 = b; b2 < last; ++b2) {
      sum += buckets[b2];
      if (buckets[b2] < r.prekill / 2.0) {
        hole = true;
      }
    }
    if (!hole && sum / static_cast<double>(last - b) >= r.threshold) {
      r.recovered = true;
      r.window = static_cast<Cycles>(b + 1) * bucket - kill_at;
      return r;
    }
  }
  return r;
}

void PrintRecovery(const Recovery& rec, const std::string& rule) {
  std::printf("%-26s %.1f/bucket pre-kill mean, threshold %.1f (%s)\n",
              "recovery target:", rec.prekill, rec.threshold, rule.c_str());
  if (rec.recovered) {
    std::printf("%-26s sustained mean >= %.1f/bucket within %llu cycles of the kill\n",
                "recovery window:", rec.threshold,
                static_cast<unsigned long long>(rec.window));
  } else {
    std::printf("%-26s NEVER RECOVERED\n", "recovery window:");
  }
}

}  // namespace mk::bench
