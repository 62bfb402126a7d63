#include "apps/mapreduce.h"

#include <algorithm>
#include <cstdint>

#include "sim/random.h"

namespace mk::apps {
namespace {

using proc::OmpRuntime;

constexpr Cycles kCyclesPerIntOp = 1;

// Allocates one per-thread intermediate bucket region, homed on the package
// of the core the thread is pinned to (the Metis layout: map output never
// leaves the mapper's node until the reduce tree pulls it).
hw::LineRegion AllocBucket(hw::Machine& m, int core, std::uint64_t bytes) {
  return {m.mem(), m.topo().PackageOf(core), sim::LinesCovering(0, bytes)};
}

// The combining-tree reduce phase, shared by both jobs. At round r thread
// tid combines partner tid + 2^r's bucket into its own (one cross-node pull
// per tree edge); every round ends at the team barrier. merge(dst, src) does
// the host-side combine.
template <typename Merge>
Task<> TreeReduce(OmpRuntime& omp, int tid, int core, const std::vector<hw::LineRegion>& bucket,
                  std::uint64_t bucket_bytes, std::uint64_t merge_ops,
                  const Merge& merge) {
  hw::Machine& m = omp.machine();
  const int threads = omp.num_threads();
  for (int span = 1; span < threads; span <<= 1) {
    if (tid % (span << 1) == 0 && tid + span < threads) {
      const int partner = tid + span;
      // Pull the partner's bucket across (its lines are homed on the
      // partner's package), combine, and write back into our own bucket.
      co_await m.mem().Read(core, bucket[static_cast<std::size_t>(partner)].base(),
                            bucket_bytes);
      merge(tid, partner);
      co_await m.Compute(core, merge_ops * kCyclesPerIntOp);
      co_await m.mem().Write(core, bucket[static_cast<std::size_t>(tid)].base(), bucket_bytes);
    }
    co_await omp.barrier().Arrive(core);
  }
}

}  // namespace

Task<WorkloadResult> RunWordCount(OmpRuntime& omp, WorkloadParams params) {
  hw::Machine& m = omp.machine();
  constexpr std::int64_t kVocab = 1024;
  const std::int64_t n = params.size;
  const int threads = omp.num_threads();

  // Synthetic corpus: min of two uniforms skews toward low word ids, the
  // Zipf-ish head every word-count corpus has.
  sim::Rng rng(params.seed);
  std::vector<std::uint32_t> words(static_cast<std::size_t>(n));
  for (auto& w : words) {
    w = static_cast<std::uint32_t>(
        std::min(rng.Below(kVocab), rng.Below(kVocab)));
  }
  hw::LineRegion corpus(m.mem(), 0, sim::LinesCovering(0, static_cast<std::uint64_t>(n) * 4));

  const std::uint64_t bucket_bytes = kVocab * 8;
  std::vector<hw::LineRegion> bucket(static_cast<std::size_t>(threads));
  std::vector<std::vector<std::int64_t>> counts(
      static_cast<std::size_t>(threads),
      std::vector<std::int64_t>(static_cast<std::size_t>(kVocab), 0));
  auto merge = [&counts](int dst, int src) {
    auto& d = counts[static_cast<std::size_t>(dst)];
    auto& s = counts[static_cast<std::size_t>(src)];
    for (std::size_t w = 0; w < d.size(); ++w) {
      d[w] += s[w];
    }
  };

  const Cycles t0 = m.exec().now();
  for (int iter = 0; iter < params.iterations; ++iter) {
    for (auto& c : counts) {
      std::fill(c.begin(), c.end(), 0);
    }
    co_await omp.Parallel([&](int tid, int core) -> Task<> {
      auto& local = counts[static_cast<std::size_t>(tid)];
      if (!bucket[static_cast<std::size_t>(tid)]) {
        bucket[static_cast<std::size_t>(tid)] = AllocBucket(m, core, bucket_bytes);
      }
      // Map: count word ids from our corpus chunk into the per-core bucket.
      auto range = omp.ChunkOf(n, tid);
      if (range.begin < range.end) {
        co_await m.mem().Read(core, corpus.base() + static_cast<std::uint64_t>(range.begin) * 4,
                              static_cast<std::uint64_t>(range.end - range.begin) * 4);
      }
      for (std::int64_t i = range.begin; i < range.end; ++i) {
        ++local[words[static_cast<std::size_t>(i)]];
      }
      co_await m.Compute(core, static_cast<Cycles>(range.end - range.begin) * 6 *
                                   kCyclesPerIntOp);
      co_await m.mem().Write(core, bucket[static_cast<std::size_t>(tid)].base(), bucket_bytes);
      co_await omp.barrier().Arrive(core);
      // Reduce: combine buckets up the tree; thread 0 ends with the total.
      co_await TreeReduce(omp, tid, core, bucket, bucket_bytes,
                          static_cast<std::uint64_t>(kVocab), merge);
    });
  }

  double checksum = 0;
  for (std::int64_t w = 0; w < kVocab; ++w) {
    checksum += static_cast<double>(counts[0][static_cast<std::size_t>(w)]) *
                static_cast<double>(w % 97 + 1);
  }
  WorkloadResult result;
  result.cycles = m.exec().now() - t0;
  result.checksum = checksum;
  co_return result;
}

Task<WorkloadResult> RunHistogram(OmpRuntime& omp, WorkloadParams params) {
  hw::Machine& m = omp.machine();
  constexpr std::int64_t kBins = 256;
  const std::int64_t n = params.size;
  const int threads = omp.num_threads();

  sim::Rng rng(params.seed);
  std::vector<double> values(static_cast<std::size_t>(n));
  for (auto& v : values) {
    v = rng.NextDouble();
  }
  hw::LineRegion input(m.mem(), 0, sim::LinesCovering(0, static_cast<std::uint64_t>(n) * 8));

  const std::uint64_t bucket_bytes = kBins * 8;
  std::vector<hw::LineRegion> bucket(static_cast<std::size_t>(threads));
  std::vector<std::vector<std::int64_t>> bins(
      static_cast<std::size_t>(threads),
      std::vector<std::int64_t>(static_cast<std::size_t>(kBins), 0));
  auto merge = [&bins](int dst, int src) {
    auto& d = bins[static_cast<std::size_t>(dst)];
    auto& s = bins[static_cast<std::size_t>(src)];
    for (std::size_t b = 0; b < d.size(); ++b) {
      d[b] += s[b];
    }
  };

  const Cycles t0 = m.exec().now();
  for (int iter = 0; iter < params.iterations; ++iter) {
    for (auto& b : bins) {
      std::fill(b.begin(), b.end(), 0);
    }
    co_await omp.Parallel([&](int tid, int core) -> Task<> {
      auto& local = bins[static_cast<std::size_t>(tid)];
      if (!bucket[static_cast<std::size_t>(tid)]) {
        bucket[static_cast<std::size_t>(tid)] = AllocBucket(m, core, bucket_bytes);
      }
      auto range = omp.ChunkOf(n, tid);
      if (range.begin < range.end) {
        co_await m.mem().Read(core, input.base() + static_cast<std::uint64_t>(range.begin) * 8,
                              static_cast<std::uint64_t>(range.end - range.begin) * 8);
      }
      for (std::int64_t i = range.begin; i < range.end; ++i) {
        auto b = static_cast<std::int64_t>(values[static_cast<std::size_t>(i)] *
                                           static_cast<double>(kBins));
        ++local[static_cast<std::size_t>(std::min(b, kBins - 1))];
      }
      co_await m.Compute(core, static_cast<Cycles>(range.end - range.begin) * 4 *
                                   kCyclesPerIntOp);
      co_await m.mem().Write(core, bucket[static_cast<std::size_t>(tid)].base(), bucket_bytes);
      co_await omp.barrier().Arrive(core);
      co_await TreeReduce(omp, tid, core, bucket, bucket_bytes,
                          static_cast<std::uint64_t>(kBins), merge);
    });
  }

  double checksum = 0;
  for (std::int64_t b = 0; b < kBins; ++b) {
    checksum += static_cast<double>(bins[0][static_cast<std::size_t>(b)]) *
                static_cast<double>(b + 1);
  }
  WorkloadResult result;
  result.cycles = m.exec().now() - t0;
  result.checksum = checksum;
  co_return result;
}

const std::vector<WorkloadEntry>& MapReduceWorkloads() {
  static const std::vector<WorkloadEntry> kAll = {
      {"wordcount", RunWordCount},
      {"histogram", RunHistogram},
  };
  return kAll;
}

}  // namespace mk::apps
