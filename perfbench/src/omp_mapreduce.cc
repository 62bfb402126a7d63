// omp_mapreduce: OmpRuntime on the 16 cores of an Amd4x4 under
// SyncFlavor::kScalable, running a seeded stream of jobs back to back (a
// closed loop: the next job starts when the previous one ends) — word count,
// histogram, NAS CG and NAS IS with seeded sizes and inputs. Every checksum
// is compared with a recount on the host. The only workload where proc/sync,
// proc/openmp and the MOESI model in hw/coherence carry most of the host
// time; net, cluster and fs are bypassed.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "apps/mapreduce.h"
#include "apps/workloads.h"
#include "harness.h"
#include "hw/platform.h"
#include "proc/openmp.h"

namespace perfbench {
namespace {

using mk::apps::WorkloadParams;
using mk::apps::WorkloadResult;

constexpr int kJobs = 1000;

enum Kind { kWordCount, kHistogram, kCg, kIs, kNumKinds };
const char* const kKindNames[kNumKinds] = {"wordcount", "histogram", "cg", "is"};

struct Job {
  Kind kind = kWordCount;
  WorkloadParams params;
  WorkloadResult result;
  Cycles latency = 0;
  double host_s = 0;
};

// Seeded job stream. Word count and IS take about twice as long as
// histogram and CG, so they get 3/8 of the jobs each: the median job then
// sits inside one latency cluster instead of on the gap between two. Sizes
// are uniform over a 4:1 range.
std::vector<Job> MakeJobs(std::uint64_t seed) {
  mk::sim::Rng rng(seed);
  std::vector<Job> jobs(kJobs);
  for (Job& j : jobs) {
    constexpr Kind kMix[8] = {kWordCount, kWordCount, kWordCount, kIs,
                              kIs,        kIs,        kHistogram, kCg};
    j.kind = kMix[rng.Below(8)];
    j.params.iterations = 1;
    j.params.seed = rng.Next();
    // size = base * (1 + u), u uniform in [0, 3)
    auto sized = [&rng](std::int64_t base) {
      return base + static_cast<std::int64_t>(rng.Below(static_cast<std::uint64_t>(3 * base)));
    };
    switch (j.kind) {
      case kWordCount: j.params.size = sized(2048); break;
      case kHistogram: j.params.size = sized(2048); break;
      case kCg:
        j.params.size = sized(256);
        j.params.iterations = 2;
        break;
      case kIs: j.params.size = sized(2048); break;
      case kNumKinds: break;
    }
  }
  return jobs;
}

// --- Host recounts: the same algorithms on the same seeded inputs ---

double RecountWordCount(const WorkloadParams& p) {
  constexpr std::uint64_t kVocab = 1024;
  mk::sim::Rng rng(p.seed);
  std::vector<std::int64_t> counts(kVocab, 0);
  for (std::int64_t i = 0; i < p.size; ++i) {
    const std::uint64_t a = rng.Below(kVocab);
    const std::uint64_t b = rng.Below(kVocab);
    ++counts[std::min(a, b)];
  }
  double sum = 0;
  for (std::uint64_t w = 0; w < kVocab; ++w) {
    sum += static_cast<double>(counts[w]) * static_cast<double>(w % 97 + 1);
  }
  return sum;
}

double RecountHistogram(const WorkloadParams& p) {
  constexpr std::int64_t kBins = 256;
  mk::sim::Rng rng(p.seed);
  std::vector<std::int64_t> bins(kBins, 0);
  for (std::int64_t i = 0; i < p.size; ++i) {
    const auto b = static_cast<std::int64_t>(rng.NextDouble() * static_cast<double>(kBins));
    ++bins[static_cast<std::size_t>(std::min(b, kBins - 1))];
  }
  double sum = 0;
  for (std::int64_t b = 0; b < kBins; ++b) {
    sum += static_cast<double>(bins[static_cast<std::size_t>(b)]) * static_cast<double>(b + 1);
  }
  return sum;
}

double RecountIs(const WorkloadParams& p) {
  mk::sim::Rng rng(p.seed);
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(p.size));
  for (auto& k : keys) {
    k = static_cast<std::uint32_t>(rng.Below(1 << 16));
  }
  std::sort(keys.begin(), keys.end());
  double sum = 0;
  for (std::size_t i = 0; i < keys.size(); i += 97) {
    sum += keys[i];
  }
  return sum;
}

double RecountCg(const WorkloadParams& p) {
  const std::int64_t n = p.size;
  const auto un = static_cast<std::size_t>(n);
  std::vector<std::vector<std::pair<std::int32_t, double>>> rows(un);
  mk::sim::Rng rng(p.seed);
  for (std::int64_t i = 0; i < n; ++i) {
    auto& row = rows[static_cast<std::size_t>(i)];
    double off = 0;
    for (int k = 0; k < 8; ++k) {
      const auto j = static_cast<std::int32_t>(rng.Below(static_cast<std::uint64_t>(n)));
      const double v = rng.NextDouble() - 0.5;
      row.emplace_back(j, v);
      off += std::abs(v);
    }
    row.emplace_back(static_cast<std::int32_t>(i), off + 1.0);
  }
  std::vector<double> x(un, 0.0), r(un, 1.0), pv(un, 1.0), q(un, 0.0);
  double rho = static_cast<double>(n);
  for (int it = 0; it < p.iterations; ++it) {
    double den = 0;
    for (std::size_t i = 0; i < un; ++i) {
      double s = 0;
      for (auto [j, v] : rows[i]) {
        s += v * pv[static_cast<std::size_t>(j)];
      }
      q[i] = s;
      den += pv[i] * s;
    }
    const double alpha = rho / den;
    double rho_new = 0;
    for (std::size_t i = 0; i < un; ++i) {
      x[i] += alpha * pv[i];
      r[i] -= alpha * q[i];
      rho_new += r[i] * r[i];
    }
    const double beta = rho_new / rho;
    rho = rho_new;
    for (std::size_t i = 0; i < un; ++i) {
      pv[i] = r[i] + beta * pv[i];
    }
  }
  return std::sqrt(rho);
}

bool ChecksumOk(const Job& j) {
  switch (j.kind) {
    case kWordCount: return j.result.checksum == RecountWordCount(j.params);
    case kHistogram: return j.result.checksum == RecountHistogram(j.params);
    case kIs: return j.result.checksum == RecountIs(j.params);
    case kCg: {
      // The parallel reduction adds per-thread partials in completion order,
      // so the last bits may differ from the sequential recount.
      const double want = RecountCg(j.params);
      return std::abs(j.result.checksum - want) <= 1e-9 * std::abs(want);
    }
    case kNumKinds: break;
  }
  return false;
}

Task<> RunStream(mk::sim::Executor& exec, mk::proc::OmpRuntime& omp, std::vector<Job>* jobs,
                 bool* done) {
  for (Job& j : *jobs) {
    const Cycles t0 = exec.now();
    Stopwatch host;
    switch (j.kind) {
      case kWordCount: j.result = co_await mk::apps::RunWordCount(omp, j.params); break;
      case kHistogram: j.result = co_await mk::apps::RunHistogram(omp, j.params); break;
      case kCg: j.result = co_await mk::apps::RunCg(omp, j.params); break;
      case kIs: j.result = co_await mk::apps::RunIs(omp, j.params); break;
      case kNumKinds: break;
    }
    j.host_s = host.Seconds();
    j.latency = exec.now() - t0;
  }
  *done = true;
}

}  // namespace

PassResult RunOmpMapreduce(const PassConfig& cfg) {
  PassResult out;
  std::vector<Job> jobs = MakeJobs(cfg.seed);
  std::vector<int> cores;
  for (int c = 0; c < 16; ++c) {
    cores.push_back(c);
  }
  // Building the machine and runtime takes ~0.1 ms, too short to time
  // once; set-up is the mean of kSetupBuilds builds, the last one kept.
  constexpr int kSetupBuilds = 32;
  Stopwatch setup;
  std::unique_ptr<mk::sim::Executor> exec_ptr;
  std::unique_ptr<mk::hw::Machine> machine_ptr;
  std::unique_ptr<mk::proc::OmpRuntime> omp_ptr;
  for (int b = 0; b < kSetupBuilds; ++b) {
    omp_ptr.reset();
    machine_ptr.reset();
    exec_ptr = std::make_unique<mk::sim::Executor>();
    machine_ptr = std::make_unique<mk::hw::Machine>(*exec_ptr, mk::hw::Amd4x4());
    omp_ptr = std::make_unique<mk::proc::OmpRuntime>(*machine_ptr, cores,
                                                     mk::proc::SyncFlavor::kScalable);
  }
  out.setup_s = setup.Seconds() / kSetupBuilds;
  mk::sim::Executor& exec = *exec_ptr;
  mk::hw::Machine& machine = *machine_ptr;
  mk::proc::OmpRuntime& omp = *omp_ptr;
  machine.counters().Reset();
  const std::size_t live_at_setup = exec.live_tasks();
  bool done = false;
  exec.Spawn(RunStream(exec, omp, &jobs, &done));

  const Cycles t0 = exec.now();
  TimedRun(exec, cfg, &out);
  out.events = exec.events_dispatched();

  Latency lat(100, 50'000'000);
  double mcyc[kNumKinds] = {};
  double host_s[kNumKinds] = {};
  std::uint64_t bad = 0;
  for (const Job& j : jobs) {
    lat.Add(j.latency);
    mcyc[j.kind] += static_cast<double>(j.result.cycles) / 1e6;
    host_s[j.kind] += j.host_s;
    bad += ChecksumOk(j) ? 0 : 1;
  }
  const double span_mcyc = static_cast<double>(exec.now() - t0) / 1e6;
  out.attempted = jobs.size();
  out.failed = bad;
  out.Sim("p50_kcyc", lat.P(0.5) / 1e3, "kcyc");
  out.Sim("p99_kcyc", lat.P(0.99) / 1e3, "kcyc");
  out.Sim("knee_req_per_mcyc", static_cast<double>(jobs.size()) / span_mcyc, "req/Mcyc");
  out.Sim("job_mcyc", span_mcyc, "Mcyc");
  out.Sim("exec.events", static_cast<double>(out.events), "count");
  for (int k = 0; k < kNumKinds; ++k) {
    out.Sim(Fmt("job.%s_mcyc", kKindNames[k]), mcyc[k], "Mcyc");
  }
  AddHwCounters({&machine}, &out);
  out.Note(Fmt("%zu jobs in %.3f Mcyc; job latency p50/p99 over %llu samples; "
               "%llu checksum mismatches",
               jobs.size(), span_mcyc, static_cast<unsigned long long>(lat.count()),
               static_cast<unsigned long long>(bad)));
  out.Check("every job checksum equals the host recount", bad == 0);
  out.Check("job stream finished", done);
  CheckDrained({&exec}, &out);
  out.Check("no task outlives the stream", exec.live_tasks() == live_at_setup);
  for (int k = 0; k < kNumKinds; ++k) {
    out.Observe(Fmt("job.%s_host_s", kKindNames[k]), host_s[k], "s");
  }
  AddTracerMetrics(&out);
  out.Seal({exec.now()});
  return out;
}

}  // namespace perfbench
