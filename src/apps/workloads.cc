#include "apps/workloads.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <deque>

#include "sim/random.h"

namespace mk::apps {
namespace {

using proc::OmpRuntime;

// Calibration: amortized cycles per floating-point op (superscalar core) and
// per light integer op.
constexpr Cycles kCyclesPerFlop = 1;
constexpr Cycles kCyclesPerIntOp = 1;
// Sparse mat-vec is memory bound: effective cycles per flop are higher.
constexpr Cycles kSpmvCyclesPerFlop = 3;

// A shared array of `bytes` backed by simulated cache lines on node 0. Its
// lines leave the directory when the region goes out of scope.
hw::LineRegion SharedArray(hw::Machine& m, std::uint64_t bytes) {
  return {m.mem(), 0, sim::LinesCovering(0, bytes)};
}

// Charges a read of the element range [first, last) x elem_bytes.
Task<> ChargeRead(hw::Machine& m, int core, const hw::LineRegion& r, std::uint64_t first,
                  std::uint64_t last, std::uint64_t elem_bytes) {
  if (first >= last) {
    co_return;
  }
  co_await m.mem().Read(core, r.base() + first * elem_bytes, (last - first) * elem_bytes);
}

Task<> ChargeWrite(hw::Machine& m, int core, const hw::LineRegion& r, std::uint64_t first,
                   std::uint64_t last, std::uint64_t elem_bytes) {
  if (first >= last) {
    co_return;
  }
  co_await m.mem().Write(core, r.base() + first * elem_bytes, (last - first) * elem_bytes);
}

// ---------------------------------------------------------------------------
// CG: conjugate gradient.
// ---------------------------------------------------------------------------

struct SparseMatrix {
  std::int64_t n = 0;
  std::vector<std::vector<std::pair<std::int32_t, double>>> rows;

  static SparseMatrix Random(std::int64_t n, int nnz_per_row, std::uint64_t seed) {
    SparseMatrix a;
    a.n = n;
    a.rows.resize(static_cast<std::size_t>(n));
    sim::Rng rng(seed);
    for (std::int64_t i = 0; i < n; ++i) {
      auto& row = a.rows[static_cast<std::size_t>(i)];
      double off_diag_sum = 0;
      for (int k = 0; k < nnz_per_row; ++k) {
        auto j = static_cast<std::int32_t>(rng.Below(static_cast<std::uint64_t>(n)));
        double v = rng.NextDouble() - 0.5;
        row.emplace_back(j, v);
        off_diag_sum += std::abs(v);
      }
      // Diagonal dominance => positive definite enough for CG to converge.
      row.emplace_back(static_cast<std::int32_t>(i), off_diag_sum + 1.0);
    }
    return a;
  }
};

}  // namespace

Task<WorkloadResult> RunCg(OmpRuntime& omp, WorkloadParams params) {
  hw::Machine& m = omp.machine();
  const std::int64_t n = params.size;
  SparseMatrix a = SparseMatrix::Random(n, 8, params.seed);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  std::vector<double> r = b;                 // r = b - A*0
  std::vector<double> p = r;
  std::vector<double> q(static_cast<std::size_t>(n), 0.0);
  double rho = 0;
  for (double v : r) {
    rho += v * v;
  }

  hw::LineRegion p_region = SharedArray(m, static_cast<std::uint64_t>(n) * 8);
  hw::LineRegion q_region = SharedArray(m, static_cast<std::uint64_t>(n) * 8);
  double alpha_den = 0;
  double rho_new = 0;
  const Cycles t0 = m.exec().now();

  for (int iter = 0; iter < params.iterations; ++iter) {
    alpha_den = 0;
    // Phase 1: q = A p and partial dot(p, q), reduction + barrier.
    co_await omp.Parallel([&](int tid, int core) -> Task<> {
      auto range = omp.ChunkOf(n, tid);
      // The mat-vec reads the whole of p: the chunks other threads rewrote
      // last iteration are coherence misses.
      co_await ChargeRead(m, core, p_region, 0, static_cast<std::uint64_t>(n), 8);
      std::uint64_t flops = 0;
      double partial = 0;
      for (std::int64_t i = range.begin; i < range.end; ++i) {
        double sum = 0;
        for (auto [j, v] : a.rows[static_cast<std::size_t>(i)]) {
          sum += v * p[static_cast<std::size_t>(j)];
        }
        q[static_cast<std::size_t>(i)] = sum;
        flops += 2 * a.rows[static_cast<std::size_t>(i)].size();
        partial += p[static_cast<std::size_t>(i)] * sum;
        flops += 2;
      }
      alpha_den += partial;
      co_await m.Compute(core, flops * kSpmvCyclesPerFlop);
      co_await ChargeWrite(m, core, q_region, static_cast<std::uint64_t>(range.begin),
                           static_cast<std::uint64_t>(range.end), 8);
      co_await omp.ReduceContribution(core);
    });

    double alpha = rho / alpha_den;
    rho_new = 0;
    // Phase 2: x += alpha p; r -= alpha q; partial dot(r, r); reduce+barrier.
    co_await omp.Parallel([&](int tid, int core) -> Task<> {
      auto range = omp.ChunkOf(n, tid);
      std::uint64_t flops = 0;
      double partial = 0;
      for (std::int64_t i = range.begin; i < range.end; ++i) {
        auto idx = static_cast<std::size_t>(i);
        x[idx] += alpha * p[idx];
        r[idx] -= alpha * q[idx];
        partial += r[idx] * r[idx];
        flops += 6;
      }
      rho_new += partial;
      co_await m.Compute(core, flops * kCyclesPerFlop);
      co_await omp.ReduceContribution(core);
    });

    double beta = rho_new / rho;
    rho = rho_new;
    // Phase 3: p = r + beta p (rewrites all of p).
    co_await omp.Parallel([&](int tid, int core) -> Task<> {
      auto range = omp.ChunkOf(n, tid);
      for (std::int64_t i = range.begin; i < range.end; ++i) {
        auto idx = static_cast<std::size_t>(i);
        p[idx] = r[idx] + beta * p[idx];
      }
      co_await m.Compute(core,
                         static_cast<Cycles>(range.end - range.begin) * 2 * kCyclesPerFlop);
      co_await ChargeWrite(m, core, p_region, static_cast<std::uint64_t>(range.begin),
                           static_cast<std::uint64_t>(range.end), 8);
    });
  }

  WorkloadResult result;
  result.cycles = m.exec().now() - t0;
  result.checksum = std::sqrt(rho);
  co_return result;
}

// ---------------------------------------------------------------------------
// FT: iterated FFT with block transpose.
// ---------------------------------------------------------------------------

namespace {

void Fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    if (i < j) {
      std::swap(data[i], data[j]);
    }
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    double angle = 2 * M_PI / static_cast<double>(len) * (inverse ? 1 : -1);
    std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        auto u = data[i + k];
        auto v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& v : data) {
      v /= static_cast<double>(n);
    }
  }
}

}  // namespace

Task<WorkloadResult> RunFt(OmpRuntime& omp, WorkloadParams params) {
  hw::Machine& m = omp.machine();
  // Round the size down to a power of two.
  std::int64_t n = 1;
  while (n * 2 <= params.size) {
    n *= 2;
  }
  sim::Rng rng(params.seed);
  std::vector<std::complex<double>> data(static_cast<std::size_t>(n));
  for (auto& v : data) {
    v = {rng.NextDouble() - 0.5, rng.NextDouble() - 0.5};
  }
  hw::LineRegion grid = SharedArray(m, static_cast<std::uint64_t>(n) * 16);
  const int threads = omp.num_threads();
  const Cycles t0 = m.exec().now();

  for (int iter = 0; iter < params.iterations; ++iter) {
    // Forward on even iterations, inverse on odd (keeps values bounded).
    Fft(data, iter % 2 == 1);
    auto log2n = static_cast<std::uint64_t>(std::log2(static_cast<double>(n)));
    co_await omp.Parallel([&](int tid, int core) -> Task<> {
      auto range = omp.ChunkOf(n, tid);
      auto count = static_cast<std::uint64_t>(range.end - range.begin);
      // Local butterfly compute: ~5 flops per point per stage.
      co_await m.Compute(core, count * log2n * 5 * kCyclesPerFlop);
      // Block transpose: exchange a sub-block with every other thread.
      for (int other = 0; other < threads; ++other) {
        if (other == tid) {
          continue;
        }
        auto opeer = omp.ChunkOf(n, other);
        std::uint64_t sub =
            static_cast<std::uint64_t>(opeer.end - opeer.begin) /
            static_cast<std::uint64_t>(threads);
        std::uint64_t first = static_cast<std::uint64_t>(opeer.begin) +
                              static_cast<std::uint64_t>(tid) * sub;
        co_await ChargeRead(m, core, grid, first, first + sub, 16);
      }
      // Write back our (now transposed) chunk.
      co_await ChargeWrite(m, core, grid, static_cast<std::uint64_t>(range.begin),
                           static_cast<std::uint64_t>(range.end), 16);
    });
  }

  double checksum = 0;
  for (const auto& v : data) {
    checksum += std::abs(v);
  }
  WorkloadResult result;
  result.cycles = m.exec().now() - t0;
  result.checksum = checksum;
  co_return result;
}

// ---------------------------------------------------------------------------
// IS: bucket integer sort.
// ---------------------------------------------------------------------------

Task<WorkloadResult> RunIs(OmpRuntime& omp, WorkloadParams params) {
  hw::Machine& m = omp.machine();
  const std::int64_t n = params.size;
  constexpr std::int64_t kBuckets = 1024;
  constexpr std::uint32_t kMaxKey = 1 << 16;
  sim::Rng rng(params.seed);
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(n));
  for (auto& k : keys) {
    k = static_cast<std::uint32_t>(rng.Below(kMaxKey));
  }
  std::vector<std::uint32_t> sorted(static_cast<std::size_t>(n));
  std::vector<std::int64_t> bucket_count(kBuckets, 0);
  hw::LineRegion buckets = SharedArray(m, kBuckets * 8);  // the contended shared array
  hw::LineRegion out = SharedArray(m, static_cast<std::uint64_t>(n) * 4);
  auto bucket_of = [](std::uint32_t key) {
    return static_cast<std::int64_t>(key) * kBuckets / kMaxKey;
  };
  const Cycles t0 = m.exec().now();

  for (int iter = 0; iter < params.iterations; ++iter) {
    std::fill(bucket_count.begin(), bucket_count.end(), 0);
    // Phase 1: histogram. Private counting is cheap; merging into the shared
    // bucket array makes every thread write every bucket line (contention).
    co_await omp.Parallel([&](int tid, int core) -> Task<> {
      auto range = omp.ChunkOf(n, tid);
      std::vector<std::int64_t> local(kBuckets, 0);
      for (std::int64_t i = range.begin; i < range.end; ++i) {
        ++local[static_cast<std::size_t>(bucket_of(keys[static_cast<std::size_t>(i)]))];
      }
      co_await m.Compute(core, static_cast<Cycles>(range.end - range.begin) * 2 *
                                   kCyclesPerIntOp);
      for (std::int64_t bk = 0; bk < kBuckets; ++bk) {
        bucket_count[static_cast<std::size_t>(bk)] += local[static_cast<std::size_t>(bk)];
      }
      co_await ChargeWrite(m, core, buckets, 0, kBuckets, 8);
    });
    // Phase 2: serial prefix sum (thread 0).
    std::vector<std::int64_t> offset(kBuckets, 0);
    for (std::int64_t bk = 1; bk < kBuckets; ++bk) {
      offset[static_cast<std::size_t>(bk)] = offset[static_cast<std::size_t>(bk - 1)] +
                                             bucket_count[static_cast<std::size_t>(bk - 1)];
    }
    co_await m.Compute(0, static_cast<Cycles>(kBuckets) * kCyclesPerIntOp);
    // Phase 3: permute into sorted order.
    std::vector<std::int64_t> cursor = offset;
    co_await omp.Parallel([&](int tid, int core) -> Task<> {
      auto range = omp.ChunkOf(n, tid);
      for (std::int64_t i = range.begin; i < range.end; ++i) {
        std::uint32_t key = keys[static_cast<std::size_t>(i)];
        auto& cur = cursor[static_cast<std::size_t>(bucket_of(key))];
        sorted[static_cast<std::size_t>(cur++)] = key;
      }
      co_await m.Compute(core, static_cast<Cycles>(range.end - range.begin) * 4 *
                                   kCyclesPerIntOp);
      co_await ChargeWrite(m, core, out, static_cast<std::uint64_t>(range.begin),
                           static_cast<std::uint64_t>(range.end), 4);
    });
    // The buckets are only bucket-ordered; finish each bucket on the host so
    // correctness is verifiable (NAS IS only ranks, we fully sort).
    std::int64_t begin = 0;
    for (std::int64_t bk = 0; bk < kBuckets; ++bk) {
      std::int64_t end = begin + bucket_count[static_cast<std::size_t>(bk)];
      std::sort(sorted.begin() + begin, sorted.begin() + end);
      begin = end;
    }
  }

  double checksum = 0;
  bool is_sorted = std::is_sorted(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); i += 97) {
    checksum += sorted[i];
  }
  WorkloadResult result;
  result.cycles = m.exec().now() - t0;
  result.checksum = is_sorted ? checksum : -1.0;
  co_return result;
}

// ---------------------------------------------------------------------------
// Barnes-Hut N-body.
// ---------------------------------------------------------------------------

namespace {

struct Body {
  double pos[3];
  double vel[3];
  double mass;
};

struct OctNode {
  double center[3];
  double half = 0;
  double com[3] = {0, 0, 0};
  double mass = 0;
  int body = -1;  // leaf body index, or -1
  int children[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
};

class Octree {
 public:
  explicit Octree(double half) {
    OctNode root;
    root.center[0] = root.center[1] = root.center[2] = 0;
    root.half = half;
    nodes_.push_back(root);
  }

  void Insert(const std::vector<Body>& bodies, int b) { InsertAt(0, bodies, b); }

  void ComputeMass(const std::vector<Body>& bodies) { MassOf(0, bodies); }

  // Returns (force accumulation, interaction count) for body b.
  std::pair<std::array<double, 3>, int> Force(const std::vector<Body>& bodies, int b,
                                              double theta) const {
    std::array<double, 3> f{0, 0, 0};
    int interactions = 0;
    ForceFrom(0, bodies, b, theta, &f, &interactions);
    return {f, interactions};
  }

  std::size_t node_count() const { return nodes_.size(); }

 private:
  int ChildIndex(const OctNode& n, const double* pos) const {
    int idx = 0;
    for (int d = 0; d < 3; ++d) {
      if (pos[d] >= n.center[d]) {
        idx |= 1 << d;
      }
    }
    return idx;
  }

  void InsertAt(int ni, const std::vector<Body>& bodies, int b) {
    OctNode& n = nodes_[static_cast<std::size_t>(ni)];
    if (n.body < 0 && n.children[0] < 0 && n.mass == 0) {
      n.body = b;
      n.mass = 1;  // occupied marker; real mass fills in ComputeMass
      return;
    }
    if (n.body >= 0) {
      // Split the leaf.
      int old = n.body;
      n.body = -1;
      PushDown(ni, bodies, old);
    }
    PushDown(ni, bodies, b);
  }

  void PushDown(int ni, const std::vector<Body>& bodies, int b) {
    // Re-read the node each time: the vector may reallocate on child
    // creation.
    int child_slot = ChildIndex(nodes_[static_cast<std::size_t>(ni)],
                                bodies[static_cast<std::size_t>(b)].pos);
    if (nodes_[static_cast<std::size_t>(ni)].children[child_slot] < 0) {
      OctNode child;
      const OctNode& parent = nodes_[static_cast<std::size_t>(ni)];
      child.half = parent.half / 2;
      for (int d = 0; d < 3; ++d) {
        child.center[d] =
            parent.center[d] + ((child_slot >> d & 1) != 0 ? child.half : -child.half);
      }
      nodes_.push_back(child);
      nodes_[static_cast<std::size_t>(ni)].children[child_slot] =
          static_cast<int>(nodes_.size() - 1);
    }
    if (nodes_[static_cast<std::size_t>(ni)].half < 1e-9) {
      // Degenerate co-located bodies: keep at this node.
      return;
    }
    InsertAt(nodes_[static_cast<std::size_t>(ni)].children[child_slot], bodies, b);
  }

  void MassOf(int ni, const std::vector<Body>& bodies) {
    OctNode& n = nodes_[static_cast<std::size_t>(ni)];
    n.mass = 0;
    n.com[0] = n.com[1] = n.com[2] = 0;
    if (n.body >= 0) {
      const Body& b = bodies[static_cast<std::size_t>(n.body)];
      n.mass = b.mass;
      for (int d = 0; d < 3; ++d) {
        n.com[d] = b.pos[d];
      }
      return;
    }
    for (int c : n.children) {
      if (c < 0) {
        continue;
      }
      MassOf(c, bodies);
      const OctNode& ch = nodes_[static_cast<std::size_t>(c)];
      n.mass += ch.mass;
      for (int d = 0; d < 3; ++d) {
        n.com[d] += ch.mass * ch.com[d];
      }
    }
    if (n.mass > 0) {
      for (int d = 0; d < 3; ++d) {
        n.com[d] /= n.mass;
      }
    }
  }

  void ForceFrom(int ni, const std::vector<Body>& bodies, int b, double theta,
                 std::array<double, 3>* f, int* interactions) const {
    const OctNode& n = nodes_[static_cast<std::size_t>(ni)];
    if (n.mass <= 0 || n.body == b) {
      return;
    }
    const Body& body = bodies[static_cast<std::size_t>(b)];
    double dx = n.com[0] - body.pos[0];
    double dy = n.com[1] - body.pos[1];
    double dz = n.com[2] - body.pos[2];
    double dist2 = dx * dx + dy * dy + dz * dz + 1e-6;
    double dist = std::sqrt(dist2);
    if (n.body >= 0 || (2 * n.half) / dist < theta) {
      double g = n.mass / (dist2 * dist);
      (*f)[0] += g * dx;
      (*f)[1] += g * dy;
      (*f)[2] += g * dz;
      ++*interactions;
      return;
    }
    for (int c : n.children) {
      if (c >= 0) {
        ForceFrom(c, bodies, b, theta, f, interactions);
      }
    }
  }

  std::vector<OctNode> nodes_;
};

}  // namespace

Task<WorkloadResult> RunBarnesHut(OmpRuntime& omp, WorkloadParams params) {
  hw::Machine& m = omp.machine();
  const auto n = static_cast<int>(std::min<std::int64_t>(params.size, 4096));
  sim::Rng rng(params.seed);
  std::vector<Body> bodies(static_cast<std::size_t>(n));
  for (auto& b : bodies) {
    for (int d = 0; d < 3; ++d) {
      b.pos[d] = rng.NextDouble() * 2 - 1;
      b.vel[d] = 0;
    }
    b.mass = 1.0 / n;
  }
  const double dt = 0.01;
  const Cycles t0 = m.exec().now();
  std::vector<std::array<double, 3>> forces(static_cast<std::size_t>(n));

  for (int step = 0; step < params.iterations; ++step) {
    // Serial tree build on core 0: the Amdahl fraction.
    Octree tree(2.0);
    for (int b = 0; b < n; ++b) {
      tree.Insert(bodies, b);
    }
    tree.ComputeMass(bodies);
    co_await m.Compute(0, static_cast<Cycles>(n) *
                              static_cast<Cycles>(std::log2(n) + 1) * 24);
    // The tree is shared read-only: each worker pulls it into its cache.
    hw::LineRegion tree_region = SharedArray(m, tree.node_count() * 64);
    co_await omp.Parallel([&](int tid, int core) -> Task<> {
      auto range = omp.ChunkOf(n, tid);
      co_await ChargeRead(m, core, tree_region, 0, tree.node_count(), 64);
      std::uint64_t interactions = 0;
      for (std::int64_t b = range.begin; b < range.end; ++b) {
        auto [f, count] = tree.Force(bodies, static_cast<int>(b), 0.5);
        forces[static_cast<std::size_t>(b)] = f;
        interactions += static_cast<std::uint64_t>(count);
      }
      co_await m.Compute(core, interactions * 24 * kCyclesPerFlop);
    });
    // Position update: embarrassingly parallel over own chunks.
    co_await omp.Parallel([&](int tid, int core) -> Task<> {
      auto range = omp.ChunkOf(n, tid);
      for (std::int64_t b = range.begin; b < range.end; ++b) {
        auto idx = static_cast<std::size_t>(b);
        for (int d = 0; d < 3; ++d) {
          bodies[idx].vel[d] += dt * forces[idx][d];
          bodies[idx].pos[d] += dt * bodies[idx].vel[d];
        }
      }
      co_await m.Compute(core,
                         static_cast<Cycles>(range.end - range.begin) * 12 * kCyclesPerFlop);
    });
  }

  double com[3] = {0, 0, 0};
  for (const auto& b : bodies) {
    for (int d = 0; d < 3; ++d) {
      com[d] += b.mass * b.pos[d];
    }
  }
  WorkloadResult result;
  result.cycles = m.exec().now() - t0;
  result.checksum = com[0] + com[1] + com[2];
  co_return result;
}

// ---------------------------------------------------------------------------
// Radiosity: task queue with lock contention.
// ---------------------------------------------------------------------------

Task<WorkloadResult> RunRadiosity(OmpRuntime& omp, WorkloadParams params) {
  hw::Machine& m = omp.machine();
  const auto n_patches = static_cast<int>(std::min<std::int64_t>(params.size, 4096));
  sim::Rng rng(params.seed);
  std::vector<double> radiosity(static_cast<std::size_t>(n_patches), 0.0);
  std::vector<double> emission(static_cast<std::size_t>(n_patches), 0.0);
  // A few emitters; form factors to ~16 random visible patches each.
  for (int i = 0; i < n_patches / 16 + 1; ++i) {
    emission[rng.Below(static_cast<std::uint64_t>(n_patches))] = 1.0;
  }
  std::vector<std::vector<std::pair<int, double>>> visible(
      static_cast<std::size_t>(n_patches));
  for (int i = 0; i < n_patches; ++i) {
    for (int k = 0; k < 16; ++k) {
      int j = static_cast<int>(rng.Below(static_cast<std::uint64_t>(n_patches)));
      visible[static_cast<std::size_t>(i)].emplace_back(j, rng.NextDouble() / 40.0);
    }
  }
  hw::LineRegion patches = SharedArray(m, static_cast<std::uint64_t>(n_patches) * 8);
  proc::Mutex queue_lock(m, omp.flavor());
  std::deque<int> queue;
  const Cycles t0 = m.exec().now();

  for (int sweep = 0; sweep < params.iterations; ++sweep) {
    for (int i = 0; i < n_patches; ++i) {
      queue.push_back(i);
    }
    co_await omp.Parallel([&](int tid, int core) -> Task<> {
      (void)tid;
      while (true) {
        co_await queue_lock.Lock(core);
        if (queue.empty()) {
          co_await queue_lock.Unlock(core);
          break;
        }
        int patch = queue.front();
        queue.pop_front();
        co_await queue_lock.Unlock(core);
        // Gather incident energy from visible patches (reads shared lines),
        // update our patch (write its line).
        double incoming = emission[static_cast<std::size_t>(patch)];
        for (auto [j, ff] : visible[static_cast<std::size_t>(patch)]) {
          incoming += ff * radiosity[static_cast<std::size_t>(j)];
          co_await ChargeRead(m, core, patches, static_cast<std::uint64_t>(j),
                              static_cast<std::uint64_t>(j) + 1, 8);
        }
        radiosity[static_cast<std::size_t>(patch)] =
            0.5 * radiosity[static_cast<std::size_t>(patch)] + 0.5 * incoming;
        co_await m.Compute(core, 16 * 6 * kCyclesPerFlop);
        co_await ChargeWrite(m, core, patches, static_cast<std::uint64_t>(patch),
                             static_cast<std::uint64_t>(patch) + 1, 8);
      }
    });
  }

  double total = 0;
  for (double v : radiosity) {
    total += v;
  }
  WorkloadResult result;
  result.cycles = m.exec().now() - t0;
  result.checksum = total;
  co_return result;
}

const std::vector<WorkloadEntry>& AllWorkloads() {
  static const std::vector<WorkloadEntry> kAll = {
      {"CG", RunCg},           {"FT", RunFt},
      {"IS", RunIs},           {"Barnes-Hut", RunBarnesHut},
      {"radiosity", RunRadiosity},
  };
  return kAll;
}

}  // namespace mk::apps
