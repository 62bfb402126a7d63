#include "harness.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "apps/httpd.h"
#include "trace/trace.h"

namespace perfbench {

std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

void PassResult::Seal(std::initializer_list<std::uint64_t> extra) {
  Digest d;
  for (const Metric& m : sim) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(m.value));
    std::memcpy(&bits, &m.value, sizeof(bits));
    d.Mix(bits);
  }
  for (std::uint64_t v : extra) {
    d.Mix(v);
  }
  d.Mix(attempted);
  d.Mix(failed);
  d.Mix(events);
  digest = d.value();
}

double HostNsPerOp(const std::function<void()>& fn, int min_calls) {
  Stopwatch sw;
  long calls = 0;
  while (calls < min_calls || sw.Seconds() < 0.02) {
    fn();
    ++calls;
  }
  return sw.Seconds() * 1e9 / static_cast<double>(calls);
}

void TimedRun(mk::sim::Executor& exec, const PassConfig& cfg, PassResult* out) {
  Stopwatch run;
  const Cycles t0 = exec.now();
  if (cfg.run_end > t0) {
    // Boundaries stay short of run_end, so the last event (at run_end)
    // always remains for the final Run(), which then ends exactly there.
    const Cycles span = cfg.run_end - t0;
    for (int k = 1; k < kRunSlices; ++k) {
      Stopwatch slice;
      exec.RunUntil(t0 + span * static_cast<Cycles>(k) / kRunSlices);
      out->slice_s.push_back(slice.Seconds());
    }
    Stopwatch last;
    exec.Run();
    out->slice_s.push_back(last.Seconds());
  } else {
    exec.Run();
  }
  out->wall_s = run.Seconds();
  out->run_end = exec.now();
}

double SpanPercentile(const std::vector<Cycles>& spans, double p, Cycles width, Cycles max) {
  Latency lat(width, max);
  for (Cycles c : spans) {
    lat.Add(c);
  }
  return lat.P(p);
}

bool Phase::BacklogGrows() const {
  const double half = static_cast<double>(std::max<std::uint64_t>(launched / 2, 1));
  return backlog_second / half > 1.5 * (backlog_first / half) + 2.0;
}

std::vector<Request> ArrivalSchedule(mk::sim::Rng& rng, int n, double rate,
                                     const std::function<Request(int, mk::sim::Rng&)>& make) {
  constexpr int kErlangShape = 4;
  std::vector<Request> out;
  out.reserve(static_cast<std::size_t>(n));
  const double stage_gap = 1e6 / rate / kErlangShape;
  double t = 0;
  for (int i = 0; i < n; ++i) {
    Request r = make(i, rng);
    r.due = static_cast<Cycles>(t);
    out.push_back(std::move(r));
    for (int k = 0; k < kErlangShape; ++k) {
      t += rng.Exponential(stage_gap);
    }
  }
  return out;
}

bool ParseReply(const std::string& buf, HttpReply* out) {
  const std::size_t hdr_end = buf.find("\r\n\r\n");
  if (hdr_end == std::string::npos) {
    return false;
  }
  const std::size_t sp = buf.find(' ');
  if (sp == std::string::npos || sp > hdr_end) {
    return false;
  }
  out->status = std::atoi(buf.c_str() + sp + 1);
  const std::size_t cl = buf.find("Content-Length: ");
  std::size_t len = 0;
  if (cl != std::string::npos && cl < hdr_end) {
    len = static_cast<std::size_t>(std::strtoul(buf.c_str() + cl + 16, nullptr, 10));
  }
  if (buf.size() < hdr_end + 4 + len) {
    return false;
  }
  out->keep_alive = buf.find("Connection: keep-alive") < hdr_end;
  out->body = buf.substr(hdr_end + 4, len);
  return true;
}

// ---------------------------------------------------------------------------
// Client

void Client::Plan(std::vector<Phase>* phases, Cycles t0) {
  constexpr Cycles kPhaseGap = 200'000;  // idle time before each phase
  phases_ = phases;
  boundaries_.clear();
  Cycles t = t0;
  for (Phase& ph : *phases) {
    ph.start = t + kPhaseGap;
    const Cycles window = ph.requests.empty() ? 0 : ph.requests.back().due;
    t = ph.start + window + cfg_.deadline;
    boundaries_.push_back(t);
  }
}

Task<> Client::Run() {
  for (Phase& ph : *phases_) {
    launching_ = true;
    for (std::size_t i = 0; i < ph.requests.size(); ++i) {
      const Cycles due = ph.start + ph.requests[i].due;
      if (due > exec_.now()) {
        co_await exec_.Delay(due - exec_.now());
      }
      exec_.Spawn(OneRequest(&ph, &ph.requests[i], i));
    }
    launching_ = false;
    while (ph.outstanding > 0) {
      co_await drained_.Wait();
    }
  }
  if (on_done) {
    co_await on_done();
  }
  finished_ = true;
}

Task<> Client::ClosePools() {
  for (std::size_t s = 0; s < pools_.size(); ++s) {
    for (mk::net::NetStack::TcpConn* conn : pools_[s]) {
      co_await stacks_[s]->TcpClose(*conn);
      stacks_[s]->Release(conn);
    }
    pools_[s].clear();
  }
}

Task<> Client::OneRequest(Phase* ph, const Request* req, std::size_t idx) {
  const Cycles due = ph->start + req->due;
  const Cycles deadline = due + cfg_.deadline;
  ph->max_lag = std::max(ph->max_lag, exec_.now() - due);
  ++ph->ledger.offered;
  ++ph->launched;
  ++ph->outstanding;
  if (idx < ph->requests.size() / 2) {
    ph->backlog_first += ph->outstanding;
  } else {
    ph->backlog_second += ph->outstanding;
  }
  const std::size_t s = idx % stacks_.size();
  mk::net::NetStack& stack = *stacks_[s];
  auto& pool = pools_[s];

  mk::net::NetStack::TcpConn* conn = nullptr;
  while (!pool.empty() && conn == nullptr) {
    conn = pool.back();
    pool.pop_back();
    if (conn->peer_closed) {  // the server closed it while pooled
      co_await stack.TcpClose(*conn);
      stack.Release(conn);
      conn = nullptr;
    } else {
      ++reuses_;
    }
  }
  if (conn == nullptr && exec_.now() < deadline) {
    conn = co_await stack.TcpConnect(cfg_.server_ip, 80, deadline - exec_.now());
  }
  enum class Outcome { kServed, kShed, kRefused, kReset, kTimedOut };
  Outcome outcome = Outcome::kRefused;
  HttpReply reply;
  if (conn == nullptr) {
    outcome = exec_.now() >= deadline ? Outcome::kTimedOut : Outcome::kRefused;
  } else {
    co_await stack.TcpSend(*conn, req->text);
    std::string buf;
    for (;;) {
      while (!conn->rx.empty()) {
        buf.push_back(static_cast<char>(conn->rx.front()));
        conn->rx.pop_front();
      }
      if (ParseReply(buf, &reply)) {
        outcome = reply.status == 200 ? Outcome::kServed : Outcome::kShed;
        break;
      }
      if (conn->peer_closed) {
        outcome = Outcome::kReset;
        break;
      }
      const Cycles now = exec_.now();
      if (now >= deadline) {
        outcome = Outcome::kTimedOut;
        break;
      }
      if (stack.lifecycle().enabled) {
        co_await stack.WaitReadable(*conn, deadline - now);
      } else {
        co_await conn->readable.WaitTimeout(deadline - now);
      }
    }
    if (cfg_.keep_alive && outcome == Outcome::kServed && reply.keep_alive &&
        !conn->peer_closed) {
      pool.push_back(conn);
    } else {
      co_await stack.TcpClose(*conn);
      stack.Release(conn);
    }
  }
  if (outcome == Outcome::kServed && req->write) {
    // The store acks a committed buy with "ok <lsn>" ("dup" for a replay of
    // a committed wid); any other body is a store-level refusal.
    if (reply.body.rfind("ok ", 0) == 0 || reply.body == "dup") {
      const auto owner = static_cast<std::size_t>(req->owner);
      if (ph->acked_per_owner.size() <= owner) {
        ph->acked_per_owner.resize(owner + 1, 0);
      }
      ++ph->acked_per_owner[owner];
    } else {
      outcome = Outcome::kShed;
    }
  }
  switch (outcome) {
    case Outcome::kServed:
      ++ph->ledger.served;
      ph->lat.Add(exec_.now() - due);
      if (req->write) {
        ph->write_lat.Add(exec_.now() - due);
      }
      break;
    case Outcome::kShed: ++ph->ledger.shed; break;
    case Outcome::kRefused: ++ph->ledger.refused; break;
    case Outcome::kReset: ++ph->ledger.reset; break;
    case Outcome::kTimedOut: ++ph->ledger.timed_out; break;
  }
  ph->last_done = std::max(ph->last_done, exec_.now());
  if (--ph->outstanding == 0 && !launching_) {
    drained_.Signal();
  }
}

Task<> SnapshotLoop(mk::sim::Executor& exec, std::vector<Cycles> boundaries,
                    std::function<LayerCounters()> fn, std::vector<LayerCounters>* out) {
  for (Cycles b : boundaries) {
    if (b > exec.now()) {
      co_await exec.Delay(b - exec.now());
    }
    out->push_back(fn());
  }
}

void MergeSnapshots(const std::vector<const std::vector<LayerCounters>*>& per_domain,
                    std::vector<Phase>* phases) {
  for (std::size_t k = 0; k < phases->size(); ++k) {
    LayerCounters& merged = (*phases)[k].layers;
    merged.clear();
    for (const std::vector<LayerCounters>* dom : per_domain) {
      if (k >= dom->size()) {
        continue;
      }
      for (const auto& [name, value] : (*dom)[k]) {
        auto it = std::find_if(merged.begin(), merged.end(),
                               [&name](const auto& e) { return e.first == name; });
        if (it == merged.end()) {
          merged.emplace_back(name, value);
        } else {
          it->second += value;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Knee

namespace {

bool RungOk(const Phase& p, Cycles limit) {
  return p.ledger.failed() == 0 && p.ledger.served > 0 &&
         p.lat.P(0.99) <= static_cast<double>(limit) && !p.BacklogGrows();
}

bool EndsWith(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() > n && s.compare(s.size() - n, n, suffix) == 0;
}

// Names the first layer (in request-path order) whose drops rose from the
// passing rung to the failing one; failing that, the layer whose busy share
// of the phase rose most.
std::string SaturatedLayer(const std::vector<Phase>& phases, std::size_t ok) {
  const Phase& pass = phases[ok];
  const Phase& fail = phases[ok + 1];
  const Phase* before = ok > 0 ? &phases[ok - 1] : nullptr;
  if (pass.layers.empty() || pass.layers.size() != fail.layers.size() ||
      (before != nullptr && before->layers.size() != pass.layers.size())) {
    return "unknown";
  }
  auto delta = [](const Phase& p, const Phase* prev, std::size_t i) {
    return p.layers[i].second - (prev == nullptr ? 0.0 : prev->layers[i].second);
  };
  auto span = [](const Phase& p) {
    return static_cast<double>(std::max<Cycles>(p.last_done - p.start, 1));
  };
  for (std::size_t i = 0; i < fail.layers.size(); ++i) {
    const std::string& name = fail.layers[i].first;
    if (EndsWith(name, ".drops") && delta(fail, &pass, i) > delta(pass, before, i)) {
      return name.substr(0, name.size() - 6) + " (drops rose)";
    }
  }
  std::string best = "none";
  double best_rise = 0;
  for (std::size_t i = 0; i < fail.layers.size(); ++i) {
    const std::string& name = fail.layers[i].first;
    if (!EndsWith(name, ".busy")) {
      continue;
    }
    const double rise =
        delta(fail, &pass, i) / span(fail) - delta(pass, before, i) / span(pass);
    if (rise > best_rise) {
      best_rise = rise;
      best = name.substr(0, name.size() - 5) + " (busy share rose)";
    }
  }
  return best;
}

}  // namespace

KneeResult FindKnee(const std::vector<Phase>& phases, Cycles limit) {
  KneeResult k;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (!RungOk(phases[i], limit)) {
      break;
    }
    k.last_ok_rung = static_cast<int>(i);
  }
  if (k.last_ok_rung < 0) {
    k.saturated = "nominal rung failed";
    return k;
  }
  const auto ok = static_cast<std::size_t>(k.last_ok_rung);
  k.knee = phases[ok].rate;
  if (ok + 1 == phases.size()) {
    k.saturated = "none (every rung passed)";
    return k;
  }
  const Phase& pass = phases[ok];
  const Phase& fail = phases[ok + 1];
  const double p_ok = pass.lat.P(0.99);
  const double p_fail = fail.lat.P(0.99);
  if (p_fail > static_cast<double>(limit) && p_fail > p_ok) {
    const double f = (static_cast<double>(limit) - p_ok) / (p_fail - p_ok);
    k.knee = pass.rate + std::clamp(f, 0.0, 1.0) * (fail.rate - pass.rate);
  }
  k.saturated = SaturatedLayer(phases, ok);
  return k;
}

void NoteLadder(const std::vector<Phase>& phases, Cycles limit, const KneeResult& k,
                PassResult* out) {
  out->Note(Fmt("%-8s %9s %9s %9s %8s %8s %7s %11s %7s", "rung", "req/Mcyc", "p50(k)",
                "p99(k)", "samples", "offered", "failed", "backlog", "verdict"));
  for (const Phase& p : phases) {
    const double half = static_cast<double>(std::max<std::uint64_t>(p.launched / 2, 1));
    out->Note(Fmt("%-8s %9.2f %9.1f %9.1f %8llu %8llu %7llu %5.1f->%-5.1f %7s", p.name.c_str(),
                  p.rate, p.lat.P(0.5) / 1e3, p.lat.P(0.99) / 1e3,
                  static_cast<unsigned long long>(p.lat.count()),
                  static_cast<unsigned long long>(p.ledger.offered),
                  static_cast<unsigned long long>(p.ledger.failed()), p.backlog_first / half,
                  p.backlog_second / half, RungOk(p, limit) ? "ok" : "over"));
  }
  out->Note(Fmt("knee: %.3f req/Mcyc (p99 limit %.0f kcyc; last passing rung %d); "
                "first layer to saturate: %s",
                k.knee, static_cast<double>(limit) / 1e3, k.last_ok_rung, k.saturated.c_str()));
}

void AddServingMetrics(const std::vector<Phase>& phases, const KneeResult& knee,
                       PassResult* out) {
  const Phase& nominal = phases.front();
  out->Sim("p50_kcyc", nominal.lat.P(0.5) / 1e3, "kcyc");
  out->Sim("p99_kcyc", nominal.lat.P(0.99) / 1e3, "kcyc");
  out->Sim("knee_req_per_mcyc", knee.knee, "req/Mcyc");
  out->Sim("job_mcyc", static_cast<double>(nominal.last_done - nominal.start) / 1e6, "Mcyc");
  Cycles lag = 0;
  for (const Phase& p : phases) {
    lag = std::max(lag, p.max_lag);
  }
  out->Sim("gen.lag_kcyc_max", static_cast<double>(lag) / 1e3, "kcyc");
  const Ledger& l = nominal.ledger;
  out->Note(Fmt("nominal ledger: offered=%llu served=%llu shed=%llu refused=%llu reset=%llu "
                "timed_out=%llu; p50/p99 over %llu samples",
                static_cast<unsigned long long>(l.offered),
                static_cast<unsigned long long>(l.served),
                static_cast<unsigned long long>(l.shed),
                static_cast<unsigned long long>(l.refused),
                static_cast<unsigned long long>(l.reset),
                static_cast<unsigned long long>(l.timed_out),
                static_cast<unsigned long long>(nominal.lat.count())));
  bool exact = true;
  for (const Phase& p : phases) {
    exact = exact && p.ledger.Exact() && p.outstanding == 0 &&
            p.ledger.offered == p.requests.size();
  }
  out->Check("every phase's ledger is exact (served+shed+refused+reset+timed_out == offered)",
             exact);
  out->Check("nominal phase: every request served", l.failed() == 0 && l.served == l.offered);
  out->Check("nominal phase: p99 has at least 1000 samples", nominal.lat.count() >= 1000);
  out->attempted += l.offered;
  out->failed += l.failed();
}

// ---------------------------------------------------------------------------
// Drivers

Task<> DriverLoop(mk::hw::Machine& m, mk::net::SimNic& nic, mk::net::NetStack& stack,
                  int queue, int core, SpanSet* spans, const bool* stop) {
  constexpr Cycles kDriverFrameCost = 1400;
  mk::sim::Executor& exec = m.exec();
  while (stop == nullptr || !*stop) {
    if (nic.RxReady(queue)) {
      nic.SetInterruptsEnabled(queue, false);
      const Cycles t0 = exec.now();
      auto frame = co_await nic.DriverRxPop(core, queue);
      if (frame) {
        if (spans != nullptr) {
          spans->nic_pop.push_back(exec.now() - t0);
          spans->nic_busy += static_cast<double>(exec.now() - t0);
          if (spans->captured.size() < 512) {
            spans->captured.push_back(*frame);
          }
        }
        co_await m.Compute(core, kDriverFrameCost);
        const Cycles t1 = exec.now();
        co_await stack.Input(std::move(*frame));
        if (spans != nullptr) {
          spans->stack_input.push_back(exec.now() - t1);
          spans->stack_busy += static_cast<double>(exec.now() - t1);
        }
      }
      continue;
    }
    nic.SetInterruptsEnabled(queue, true);
    if (!nic.RxReady(queue)) {
      co_await nic.rx_irq(queue).Wait();
      if (stop != nullptr && *stop) {
        break;
      }
      co_await m.Trap(core);
    }
  }
}

mk::net::StackCosts FreeCosts() {
  mk::net::StackCosts c;
  c.per_packet_in = 0;
  c.per_packet_out = 0;
  c.per_byte_checksum = 0;
  return c;
}

// ---------------------------------------------------------------------------
// Per-layer metrics

namespace {
// Keeps a host-timed loop's result observable so it is not optimized away.
volatile std::uint64_t g_sink = 0;
}  // namespace

void AddFrameHostTimings(const std::vector<mk::net::Packet>& frames, const mk::net::SimNic* nic,
                         PassResult* out) {
  if (frames.empty()) {
    return;
  }
  std::size_t i = 0;
  out->Observe("net.parse_host_ns", HostNsPerOp([&] {
                 mk::net::ParseInfo info;
                 auto parsed = mk::net::ParseFrame(frames[i++ % frames.size()], &info);
                 g_sink = g_sink + (parsed ? parsed->ip.src : 0);
               }, 20000),
               "ns");
  if (nic != nullptr) {
    out->Observe("net.rss_host_ns", HostNsPerOp([&] {
                   g_sink = g_sink + static_cast<std::uint64_t>(
                                         nic->RssQueueFor(frames[i++ % frames.size()]));
                 }, 20000),
                 "ns");
  }
}

void AddFramerHostTiming(const std::vector<Phase>& phases, PassResult* out) {
  std::vector<const std::string*> texts;
  for (const Phase& p : phases) {
    for (const Request& r : p.requests) {
      if (texts.size() < 512) {
        texts.push_back(&r.text);
      }
    }
  }
  if (texts.empty()) {
    return;
  }
  std::size_t i = 0;
  out->Observe("httpd.framer_host_ns", HostNsPerOp([&] {
                 mk::apps::HttpRequestFramer framer;
                 framer.Append(*texts[i++ % texts.size()]);
                 std::string req;
                 if (framer.PopRequest(&req)) {
                   g_sink = g_sink + req.size();
                 }
               }, 20000),
               "ns");
}

void AddNetSpans(const std::vector<const SpanSet*>& spans, PassResult* out) {
  std::vector<Cycles> pop;
  std::vector<Cycles> input;
  for (const SpanSet* s : spans) {
    pop.insert(pop.end(), s->nic_pop.begin(), s->nic_pop.end());
    input.insert(input.end(), s->stack_input.begin(), s->stack_input.end());
  }
  if (!pop.empty()) {
    out->Observe("nic.rx_pop_cyc_p50", SpanPercentile(pop, 0.5, 10, 1'000'000), "cyc");
    out->Observe("nic.rx_pop_cyc_p99", SpanPercentile(pop, 0.99, 10, 1'000'000), "cyc");
  }
  if (!input.empty()) {
    out->Observe("stack.input_kcyc_p50", SpanPercentile(input, 0.5, 100, 50'000'000) / 1e3,
                 "kcyc");
    out->Observe("stack.input_kcyc_p99", SpanPercentile(input, 0.99, 100, 50'000'000) / 1e3,
                 "kcyc");
  }
}

void AddTracerMetrics(PassResult* out) {
  using mk::trace::Category;
  using mk::trace::EventId;
  const mk::trace::Tracer* t = mk::trace::Tracer::active();
  if (t == nullptr) {
    return;
  }
  auto count = [t](EventId e) { return static_cast<double>(t->event_count(e)); };
  auto kcyc = [t](Category c) { return static_cast<double>(t->category_cycles(c)) / 1e3; };
  out->Observe("urpc.sends", count(EventId::kUrpcSend), "count");
  out->Observe("urpc.blocks", count(EventId::kUrpcBlock), "count");
  out->Observe("urpc.busy_kcyc", kcyc(Category::kUrpc), "kcyc");
  out->Observe("mon.collectives", count(EventId::kMonCollective), "count");
  out->Observe("mon.busy_kcyc", kcyc(Category::kMonitor), "kcyc");
  out->Observe("kernel.busy_kcyc", kcyc(Category::kKernel), "kcyc");
  out->Observe("trace.dropped", static_cast<double>(t->total_dropped()), "count");
}

void AddHwCounters(const std::vector<mk::hw::Machine*>& machines, PassResult* out) {
  mk::hw::CoreCounters total;
  std::uint64_t link_dwords = 0;
  for (mk::hw::Machine* m : machines) {
    total.ZipFields(m->counters().Total(),
                    [](std::uint64_t& mine, std::uint64_t theirs) { mine += theirs; });
    const int pk = m->topo().num_packages();
    for (int a = 0; a < pk; ++a) {
      for (int b = 0; b < pk; ++b) {
        link_dwords += m->counters().link_dwords(a, b);
      }
    }
  }
  out->Sim("hw.cache_misses", static_cast<double>(total.cache_misses), "count");
  out->Sim("hw.c2c_transfers", static_cast<double>(total.c2c_transfers), "count");
  out->Sim("hw.dram_fetches", static_cast<double>(total.dram_fetches), "count");
  out->Sim("hw.link_dwords", static_cast<double>(link_dwords), "count");
  out->Sim("hw.ipis_sent", static_cast<double>(total.ipis_sent), "count");
  out->Sim("hw.traps", static_cast<double>(total.traps), "count");
}

void AddStackCounters(const std::vector<const mk::net::NetStack*>& stacks, PassResult* out) {
  double in = 0, sent = 0, drops = 0, retx = 0;
  double scheduled = 0, cancelled = 0, cascades = 0;
  double peak_live = 0, max_probe = 0, rehashes = 0;
  for (const mk::net::NetStack* s : stacks) {
    in += static_cast<double>(s->frames_in());
    sent += static_cast<double>(s->frames_out());
    drops += static_cast<double>(s->drops());
    retx += static_cast<double>(s->tcp_retransmits());
    scheduled += static_cast<double>(s->wheel().scheduled());
    cancelled += static_cast<double>(s->wheel().cancelled());
    cascades += static_cast<double>(s->wheel().cascades());
    peak_live += static_cast<double>(s->conn_table().peak_live());
    max_probe = std::max(max_probe, static_cast<double>(s->conn_table().max_probe()));
    rehashes += static_cast<double>(s->conn_table().rehashes());
  }
  out->Sim("stack.frames_in", in, "count");
  out->Sim("stack.frames_out", sent, "count");
  out->Sim("stack.drops", drops, "count");
  out->Sim("stack.retransmits", retx, "count");
  out->Sim("wheel.scheduled", scheduled, "count");
  out->Sim("wheel.cancel_ratio", scheduled > 0 ? cancelled / scheduled : 0.0, "ratio");
  out->Sim("wheel.cascades", cascades, "count");
  out->Sim("conntab.peak_live", peak_live, "count");
  out->Sim("conntab.max_probe", max_probe, "count");
  out->Sim("conntab.rehashes", rehashes, "count");
}

void AddNicCounters(const std::vector<const mk::net::SimNic*>& nics, PassResult* out) {
  double rx = 0, drops = 0, ring_full = 0;
  for (const mk::net::SimNic* n : nics) {
    for (int q = 0; q < n->num_queues(); ++q) {
      const auto& st = n->queue_stats(q);
      rx += static_cast<double>(st.rx_frames);
      drops += static_cast<double>(st.rx_drops());
      ring_full += static_cast<double>(st.tx_ring_full);
    }
  }
  out->Sim("nic.rx_frames", rx, "count");
  out->Sim("nic.rx_drops", drops, "count");
  out->Sim("nic.tx_ring_full", ring_full, "count");
}

void CheckDrained(const std::vector<const mk::sim::Executor*>& execs, PassResult* out) {
  bool drained = true;
  for (const mk::sim::Executor* e : execs) {
    drained = drained && e->pending_events() == 0;
  }
  out->Check("every executor drained (pending_events == 0)", drained);
}

}  // namespace perfbench
