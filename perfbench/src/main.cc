// perfbench: one benchmark for both clocks of the simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run repeats passes of one workload for at least --seconds of host time
// (and at least three passes; the first warms up and is not timed). Each pass builds the system from scratch
// (set-up), runs a fixed offered workload, and checks its outputs. With
// --trace 0 the run reports the end-to-end metrics: median host set-up
// seconds, the least host run seconds (see RunSeconds), peak RSS, and the
// simulated metrics, which must be identical in every pass. With --trace 1 it alternates untraced and traced passes and
// reports the per-layer metrics of the traced pass plus the tracing overhead.
// Human-readable detail goes to stderr; the last stdout line is one JSON
// object. The exit code is 0 only when every correctness check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  PassResult (*run)(const PassConfig&);
  bool multi_domain;  // host threads apply; thread invariance is checked
};

const Workload kWorkloads[] = {
    {"rack_get", RunRackGet, true},
    {"conn_keepalive", RunConnKeepalive, false},
    {"store_browse_buy", RunStoreBrowseBuy, false},
    {"omp_mapreduce", RunOmpMapreduce, false},
};

struct Name {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists (run.py checks).
const Name kEndToEnd[] = {
    {"setup_s", "s"},         {"wall_s", "s"},
    {"peak_rss_mb", "MB"},    {"p50_kcyc", "kcyc"},
    {"p99_kcyc", "kcyc"},     {"knee_req_per_mcyc", "req/Mcyc"},
    {"job_mcyc", "Mcyc"},
};

const Name kPerLayer[] = {
    // sim
    {"exec.events", "count"}, {"exec.host_ns_per_event", "ns"}, {"gen.lag_kcyc_max", "kcyc"},
    // sim/parallel
    {"par.epochs", "count"}, {"par.events_per_epoch", "count"},
    {"par.cross_messages", "count"}, {"par.speedup", "x"},
    // hw
    {"hw.cache_misses", "count"}, {"hw.c2c_transfers", "count"}, {"hw.dram_fetches", "count"},
    {"hw.link_dwords", "count"}, {"hw.ipis_sent", "count"}, {"hw.traps", "count"},
    // urpc, monitor, kernel
    {"urpc.sends", "count"}, {"urpc.blocks", "count"}, {"urpc.busy_kcyc", "kcyc"},
    {"mon.collectives", "count"}, {"mon.busy_kcyc", "kcyc"}, {"kernel.busy_kcyc", "kcyc"},
    // net: nic, stack
    {"nic.rx_frames", "count"}, {"nic.rx_drops", "count"}, {"nic.tx_ring_full", "count"},
    {"nic.rx_pop_cyc_p50", "cyc"}, {"nic.rx_pop_cyc_p99", "cyc"},
    {"stack.input_kcyc_p50", "kcyc"}, {"stack.input_kcyc_p99", "kcyc"},
    {"stack.frames_in", "count"}, {"stack.frames_out", "count"}, {"stack.drops", "count"},
    {"stack.retransmits", "count"}, {"net.parse_host_ns", "ns"}, {"net.rss_host_ns", "ns"},
    // net: timer wheel, conn table
    {"wheel.scheduled", "count"}, {"wheel.cancel_ratio", "ratio"}, {"wheel.cascades", "count"},
    {"wheel.host_ns_per_op", "ns"}, {"conntab.peak_live", "count"},
    {"conntab.max_probe", "count"}, {"conntab.rehashes", "count"},
    {"conntab.host_ns_per_op", "ns"},
    // cluster, net/crosswire
    {"fabric.forwarded", "count"}, {"fabric.drops", "count"}, {"lb.steered", "count"},
    {"lb.drops", "count"}, {"crosswire.frames", "count"}, {"membership.view_changes", "count"},
    // apps/httpd
    {"httpd.served", "count"}, {"httpd.shed", "count"}, {"httpd.bad", "count"},
    {"httpd.framer_host_ns", "ns"},
    // apps/store, fs/wal, apps/db
    {"write_p99_kcyc", "kcyc"}, {"store.read_kcyc_p50", "kcyc"}, {"store.read_kcyc_p99", "kcyc"},
    {"store.write_kcyc_p50", "kcyc"}, {"store.write_kcyc_p99", "kcyc"},
    {"store.records_shipped", "count"}, {"store.rpc_timeouts", "count"},
    {"store.writes_dup", "count"}, {"db.query_host_us", "us"}, {"db.exec_host_us", "us"},
    {"wal.encode_host_ns", "ns"}, {"wal.decode_host_ns", "ns"},
    // proc, apps/mapreduce, apps/workloads
    {"job.wordcount_mcyc", "Mcyc"}, {"job.histogram_mcyc", "Mcyc"}, {"job.cg_mcyc", "Mcyc"},
    {"job.is_mcyc", "Mcyc"}, {"job.wordcount_host_s", "s"}, {"job.histogram_host_s", "s"},
    {"job.cg_host_s", "s"}, {"job.is_host_s", "s"},
    // trace
    {"trace.overhead_frac", "ratio"}, {"trace.dropped", "count"},
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Host seconds of the timed run over the passes of `v` after its first (which
// warms the allocator and caches): the least time any of them took. Every
// pass runs the same events, and a neighbour on a shared host only ever
// slows a pass down, so the least time is the cost of the events themselves.
// When every pass was timed in the same slices, the least time is taken
// slice by slice and summed, which also filters bursts shorter than a pass.
double RunSeconds(const std::vector<PassResult>& v) {
  if (v.empty()) {
    return 0;
  }
  const std::size_t from = v.size() > 1 ? 1 : 0;
  double least = v[from].wall_s;
  std::vector<double> best;
  bool sliced = v.size() > 1;
  for (std::size_t i = from; i < v.size(); ++i) {
    const std::vector<double>& s = v[i].slice_s;
    least = std::min(least, v[i].wall_s);
    sliced = sliced && s.size() == static_cast<std::size_t>(kRunSlices);
    if (!sliced) {
      continue;
    }
    if (best.empty()) {
      best = s;
    }
    for (std::size_t k = 0; k < s.size(); ++k) {
      best[k] = std::min(best[k], s[k]);
    }
  }
  double sum = 0;
  for (double s : best) {
    sum += s;
  }
  return sliced ? sum : least;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

const Metric* Find(const std::vector<Metric>& v, const char* name) {
  for (const Metric& m : v) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <rack_get|conn_keepalive|store_browse_buy|"
               "omp_mapreduce> --seed <n> --seconds <s> --trace <0|1>\n");
}

int Main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to time an unoptimized build\n");
  return 2;
#endif
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Host threads for the multi-domain workload: at most nproc, and at most
  // two. An epoch waits for its slowest thread, so with a thread on every
  // core of a shared host a burst on any one core stalls the whole run; at
  // four threads on four cores the run time spread three times as wide.
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  int threads = std::min(nproc, 2);
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(val, "0") != 0;
    } else {
      Usage();
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload == cand.name) {
      w = &cand;
    }
  }
  if (w == nullptr || argc % 2 == 0 || seconds <= 0) {
    Usage();
    return 2;
  }
  if (!w->multi_domain) {
    threads = 1;
  }

  // --- Passes ---
  constexpr std::size_t kMinPasses = 3;
  Stopwatch total;
  std::vector<PassResult> plain;       // untraced, `threads` host threads
  std::vector<PassResult> traced;      // traced, `threads` host threads
  std::vector<PassResult> one_thread;  // untraced, 1 host thread (multi-domain only)
  auto pass = [&](int t, bool tr) {
    std::unique_ptr<mk::trace::Tracer> tracer;
    if (tr) {
      tracer = std::make_unique<mk::trace::Tracer>(4096);
      tracer->Install();
    }
    // The first pass runs whole and shows where the run ends; later passes
    // are timed in slices up to that point.
    PassResult r = w->run({seed, t, tr, plain.empty() ? 0 : plain.front().run_end});
    if (tracer != nullptr) {
      tracer->Uninstall();
    }
    return r;
  };
  double peak_rss_mb = 0;
  if (!trace) {
    while (plain.size() < kMinPasses || total.Seconds() < seconds) {
      plain.push_back(pass(threads, false));
      if (plain.size() == 1) {
        // Later passes reuse freed memory to a varying degree; the first
        // pass's high-water mark is what one run of the workload needs.
        peak_rss_mb = PeakRssMb();
      }
    }
    if (w->multi_domain && threads > 1) {
      one_thread.push_back(pass(1, false));
    }
  } else {
    while (traced.size() < 2 || total.Seconds() < seconds) {
      plain.push_back(pass(threads, false));
      traced.push_back(pass(threads, true));
      if (w->multi_domain && threads > 1) {
        one_thread.push_back(pass(1, false));
      }
    }
  }
  const double elapsed = total.Seconds();

  // --- Checks ---
  const PassResult& first = plain.front();
  std::map<std::string, bool> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto fold = [&](const std::vector<PassResult>& v) {
    for (const PassResult& r : v) {
      for (const auto& [name, ok] : r.checks) {
        auto it = checks.try_emplace(name, true).first;
        it->second = it->second && ok;
      }
      attempted += r.attempted;
      failed += r.failed;
    }
  };
  fold(plain);
  fold(traced);
  fold(one_thread);
  auto same = [&first](const std::vector<PassResult>& v) {
    return std::all_of(v.begin(), v.end(),
                       [&first](const PassResult& r) { return r.digest == first.digest; });
  };
  checks["every untraced pass has identical simulated metrics"] = same(plain);
  if (!traced.empty()) {
    checks["traced passes have the untraced simulated metrics (observers do not perturb)"] =
        same(traced);
  }
  if (!one_thread.empty()) {
    checks[Fmt("simulated metrics and schedule digest identical at 1 and %d host threads",
               threads)] = same(one_thread);
  }
  bool correct = true;
  for (const auto& [name, ok] : checks) {
    correct = correct && ok;
  }

  // --- Metrics ---
  std::vector<Metric> metrics;
  // The first pass of each kind warms the allocator and caches; it is
  // checked like every other pass but left out of the host times.
  auto median_of = [](const std::vector<PassResult>& v, double PassResult::*field) {
    std::vector<double> xs;
    for (std::size_t i = v.size() > 1 ? 1 : 0; i < v.size(); ++i) {
      xs.push_back(v[i].*field);
    }
    return Median(xs);
  };
  const double wall = RunSeconds(plain);
  if (!trace) {
    std::map<std::string, double> values = {{"setup_s", median_of(plain, &PassResult::setup_s)},
                                            {"wall_s", wall},
                                            {"peak_rss_mb", peak_rss_mb}};
    for (const Name& n : kEndToEnd) {
      auto it = values.find(n.name);
      const Metric* m = Find(first.sim, n.name);
      const double v = it != values.end() ? it->second : (m != nullptr ? m->value : NAN);
      metrics.push_back({n.name, v, n.unit});
    }
  } else {
    const PassResult& t = traced.front();
    std::map<std::string, double> values;
    for (const Metric& m : t.sim) {
      values[m.name] = m.value;
    }
    for (const Metric& m : t.observed) {
      values[m.name] = m.value;
    }
    // Host timings that untraced passes also record come from those passes
    // (median), so tracing overhead does not inflate them.
    std::map<std::string, std::vector<double>> host;
    for (std::size_t i = plain.size() > 1 ? 1 : 0; i < plain.size(); ++i) {
      for (const Metric& m : plain[i].observed) {
        host[m.name].push_back(m.value);
      }
    }
    for (const auto& [name, xs] : host) {
      values[name] = Median(xs);
    }
    values["exec.host_ns_per_event"] =
        wall * 1e9 / static_cast<double>(std::max<std::uint64_t>(first.events, 1));
    values["trace.overhead_frac"] = RunSeconds(traced) / wall - 1.0;
    if (!one_thread.empty()) {
      values["par.speedup"] = RunSeconds(one_thread) / wall;
    }
    for (const Name& n : kPerLayer) {
      auto it = values.find(n.name);
      metrics.push_back({n.name, it != values.end() ? it->second : 0.0, n.unit});
    }
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      checks[std::string("metric is finite: ") + m.name] = false;
      correct = false;
    }
  }

  // --- Human-readable report (stderr) ---
  std::fprintf(stderr, "perfbench %s: seed=%llu trace=%d nproc=%d host_threads=%d "
               "compiler=\"%s\" build=%s\n",
               w->name, static_cast<unsigned long long>(seed), trace ? 1 : 0, nproc, threads,
               PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::fprintf(stderr, "passes: %zu untraced, %zu traced, %zu at 1 thread, in %.2f s\n",
               plain.size(), traced.size(), one_thread.size(), elapsed);
  std::string walls;
  for (const PassResult& r : plain) {
    walls += Fmt(" %.3f/%.3f", r.setup_s, r.wall_s);
  }
  std::fprintf(stderr, "untraced set-up/run seconds per pass:%s\n", walls.c_str());
  std::fprintf(stderr, "run seconds: %.4f reported (%s), %.4f median pass\n", wall,
               plain.back().slice_s.empty() ? "least pass" : "sum of per-slice minima",
               median_of(plain, &PassResult::wall_s));
  for (const std::string& line : (trace ? traced.front() : first).notes) {
    std::fprintf(stderr, "  %s\n", line.c_str());
  }
  for (const auto& [name, ok] : checks) {
    std::fprintf(stderr, "check %-4s %s\n", ok ? "ok" : "FAIL", name.c_str());
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "%-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  // --- Result (stdout, last line) ---
  std::string json = Fmt("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                         correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                         static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    json += Fmt("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
