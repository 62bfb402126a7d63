// Tests for the Figure 9 workloads: the real algorithms must be correct, and
// results must be independent of thread count and synchronization flavor.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "apps/mapreduce.h"
#include "apps/workloads.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "proc/openmp.h"
#include "sim/executor.h"
#include "sim/random.h"

namespace mk::apps {
namespace {

using proc::OmpRuntime;
using proc::SyncFlavor;
using sim::Task;

std::vector<int> FirstCores(int n) {
  std::vector<int> cores;
  for (int i = 0; i < n; ++i) {
    cores.push_back(i);
  }
  return cores;
}

WorkloadResult RunWorkload(Task<WorkloadResult> (*fn)(OmpRuntime&, WorkloadParams), int threads,
                   SyncFlavor flavor, WorkloadParams params) {
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd4x4());
  OmpRuntime omp(machine, FirstCores(threads), flavor);
  WorkloadResult result;
  exec.Spawn([](Task<WorkloadResult> task, WorkloadResult& out) -> Task<> {
    out = co_await std::move(task);
  }(fn(omp, params), result));
  exec.Run();
  return result;
}

WorkloadParams SmallParams() {
  WorkloadParams p;
  p.iterations = 3;
  p.size = 1024;
  return p;
}

TEST(Cg, ResidualShrinksWithIterations) {
  WorkloadParams p3 = SmallParams();
  WorkloadParams p9 = SmallParams();
  p9.iterations = 9;
  double r3 = RunWorkload(RunCg, 4, SyncFlavor::kUserSpace, p3).checksum;
  double r9 = RunWorkload(RunCg, 4, SyncFlavor::kUserSpace, p9).checksum;
  EXPECT_GT(r3, 0);
  EXPECT_LT(r9, r3);  // CG converges on the diagonally dominant system
}

TEST(Ft, ForwardInverseRoundTripPreservesSignal) {
  // An even iteration count ends after an inverse transform: the data is the
  // original signal, so the checksum equals the initial magnitude sum.
  WorkloadParams once = SmallParams();
  once.iterations = 2;
  WorkloadParams thrice = SmallParams();
  thrice.iterations = 6;
  double a = RunWorkload(RunFt, 4, SyncFlavor::kUserSpace, once).checksum;
  double b = RunWorkload(RunFt, 4, SyncFlavor::kUserSpace, thrice).checksum;
  EXPECT_NEAR(a, b, 1e-6 * a);
}

TEST(Is, ProducesSortedOutput) {
  auto result = RunWorkload(RunIs, 4, SyncFlavor::kUserSpace, SmallParams());
  EXPECT_GT(result.checksum, 0) << "checksum -1 flags an unsorted result";
}

TEST(BarnesHut, MomentumRoughlyConserved) {
  // Center-of-mass drift stays small for a symmetric random cloud.
  auto result = RunWorkload(RunBarnesHut, 4, SyncFlavor::kUserSpace, SmallParams());
  EXPECT_LT(std::abs(result.checksum), 0.5);
}

TEST(Radiosity, EnergyBoundedAndPositive) {
  auto result = RunWorkload(RunRadiosity, 4, SyncFlavor::kUserSpace, SmallParams());
  EXPECT_GT(result.checksum, 0);
  EXPECT_LT(result.checksum, 4096);
}

// Property: every workload computes the same answer regardless of thread
// count and synchronization flavor (the parallelization must not change the
// mathematics beyond FP reassociation).
struct InvarianceCase {
  const char* name;
  Task<WorkloadResult> (*fn)(OmpRuntime&, WorkloadParams);
  double tolerance;  // relative, for FP reassociation
};

// Prints the case as text. gtest would print the bytes of `name` and `fn`,
// pointers that move with every link, into the name each test is listed
// under.
void PrintTo(const InvarianceCase& c, std::ostream* os) {
  *os << c.name << ", relative tolerance " << c.tolerance;
}

class WorkloadInvariance : public ::testing::TestWithParam<InvarianceCase> {};

TEST_P(WorkloadInvariance, ChecksumStableAcrossThreadsAndFlavors) {
  const auto& c = GetParam();
  double reference = RunWorkload(c.fn, 1, SyncFlavor::kUserSpace, SmallParams()).checksum;
  for (int threads : {2, 4, 16}) {
    for (SyncFlavor flavor : {SyncFlavor::kUserSpace, SyncFlavor::kKernel}) {
      double got = RunWorkload(c.fn, threads, flavor, SmallParams()).checksum;
      double tol = c.tolerance * (std::abs(reference) + 1e-9);
      EXPECT_NEAR(got, reference, tol)
          << c.name << " threads=" << threads
          << " flavor=" << (flavor == SyncFlavor::kUserSpace ? "user" : "kernel");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadInvariance,
    ::testing::Values(InvarianceCase{"CG", RunCg, 1e-6},
                      InvarianceCase{"FT", RunFt, 1e-9},
                      InvarianceCase{"IS", RunIs, 0.0},
                      InvarianceCase{"BarnesHut", RunBarnesHut, 1e-9},
                      // Radiosity's task interleaving varies with threads, so
                      // the Jacobi/Gauss-Seidel mix differs slightly.
                      InvarianceCase{"radiosity", RunRadiosity, 0.35}),
    [](const ::testing::TestParamInfo<InvarianceCase>& info) { return info.param.name; });

TEST(Workloads, MoreThreadsNeverIncreaseComputePhaseWork) {
  // Simulated time with 8 threads should beat 1 thread for the scalable
  // kernels at this size.
  for (auto* fn : {RunCg, RunBarnesHut}) {
    auto t1 = RunWorkload(fn, 1, SyncFlavor::kUserSpace, SmallParams()).cycles;
    auto t8 = RunWorkload(fn, 8, SyncFlavor::kUserSpace, SmallParams()).cycles;
    EXPECT_LT(t8, t1);
  }
}

TEST(Workloads, TableHasAllFiveEntries) {
  EXPECT_EQ(AllWorkloads().size(), 5u);
}

// --- MapReduce (Metis-style word count / histogram) ------------------------

TEST(MapReduce, WordCountChecksumMatchesHostReference) {
  // Recompute the corpus with the same Rng stream and count serially on the
  // host; the simulated map + combining-tree reduce must agree exactly
  // (integer counts, no FP reassociation in play).
  WorkloadParams p = SmallParams();
  std::vector<std::int64_t> counts(1024, 0);
  sim::Rng rng(p.seed);
  for (std::int64_t i = 0; i < p.size; ++i) {
    ++counts[static_cast<std::size_t>(std::min(rng.Below(1024), rng.Below(1024)))];
  }
  double expected = 0;
  for (std::size_t w = 0; w < counts.size(); ++w) {
    expected += static_cast<double>(counts[w]) * static_cast<double>(w % 97 + 1);
  }
  EXPECT_EQ(RunWorkload(RunWordCount, 4, SyncFlavor::kUserSpace, p).checksum, expected);
}

TEST(MapReduce, HistogramChecksumMatchesHostReference) {
  WorkloadParams p = SmallParams();
  std::vector<std::int64_t> bins(256, 0);
  sim::Rng rng(p.seed);
  for (std::int64_t i = 0; i < p.size; ++i) {
    auto b = static_cast<std::int64_t>(rng.NextDouble() * 256.0);
    ++bins[static_cast<std::size_t>(std::min<std::int64_t>(b, 255))];
  }
  double expected = 0;
  for (std::size_t b = 0; b < bins.size(); ++b) {
    expected += static_cast<double>(bins[b]) * static_cast<double>(b + 1);
  }
  EXPECT_EQ(RunWorkload(RunHistogram, 4, SyncFlavor::kUserSpace, p).checksum, expected);
}

TEST(MapReduce, ChecksumInvariantAcrossThreadsAndFlavors) {
  // Integer counts: the partition of the corpus over threads and the choice
  // of barrier/lock implementation must not change the answer by even a bit.
  // Thread counts 3 and 5 exercise the byes in the non-power-of-two reduce
  // tree and (under kScalable) the tournament barrier.
  for (auto& entry : MapReduceWorkloads()) {
    double reference =
        RunWorkload(entry.run, 1, SyncFlavor::kUserSpace, SmallParams()).checksum;
    for (int threads : {2, 3, 5, 8, 16}) {
      for (SyncFlavor flavor :
           {SyncFlavor::kUserSpace, SyncFlavor::kKernel, SyncFlavor::kScalable}) {
        double got = RunWorkload(entry.run, threads, flavor, SmallParams()).checksum;
        EXPECT_EQ(got, reference)
            << entry.name << " threads=" << threads
            << " flavor=" << static_cast<int>(flavor);
      }
    }
  }
}

TEST(MapReduce, MoreThreadsShortenTheMapPhase) {
  // Needs a corpus big enough that the O(n/threads) map phase dominates the
  // fixed per-iteration reduce cost (bucket flush + tree merge + barriers).
  WorkloadParams p = SmallParams();
  p.size = 1 << 14;
  for (auto& entry : MapReduceWorkloads()) {
    auto t1 = RunWorkload(entry.run, 1, SyncFlavor::kUserSpace, p).cycles;
    auto t8 = RunWorkload(entry.run, 8, SyncFlavor::kUserSpace, p).cycles;
    EXPECT_LT(t8, t1) << entry.name;
  }
}

TEST(MapReduce, TableHasBothJobsAndLeavesFigureNineTableAlone) {
  EXPECT_EQ(MapReduceWorkloads().size(), 2u);
  EXPECT_EQ(AllWorkloads().size(), 5u);  // Figure 9 table stays pinned at five
}

}  // namespace
}  // namespace mk::apps
