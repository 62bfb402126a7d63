// Property/fuzz tests for the coherence protocol: random concurrent access
// sequences must preserve the MOESI-style invariants on every platform, and
// the simulation must be deterministic. The line directory behind the model
// is checked against a record the test keeps itself.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "hw/machine.h"
#include "hw/platform.h"
#include "sim/executor.h"
#include "sim/random.h"

namespace mk::hw {
namespace {

using sim::Addr;
using sim::Cycles;
using sim::Task;

struct FuzzConfig {
  const char* platform;
  std::uint64_t seed;
  int lines;
  int ops_per_core;
};

// Prints the case as text. gtest would print the bytes of `platform`, a
// pointer that moves every run, into the name each test is listed under.
void PrintTo(const FuzzConfig& c, std::ostream* os) {
  *os << c.platform << " seed " << c.seed << ": " << c.lines << " lines, "
      << c.ops_per_core << " ops per core";
}

PlatformSpec SpecByName(const char* name) {
  for (auto& s : PaperPlatforms()) {
    if (s.name == std::string_view(name)) {
      return s;
    }
  }
  return Generic(2, 2);
}

Task<> FuzzWorker(Machine& m, int core, Addr base, int lines, int ops, std::uint64_t seed) {
  sim::Rng rng(seed ^ (static_cast<std::uint64_t>(core) << 32));
  for (int i = 0; i < ops; ++i) {
    Addr addr = base + rng.Below(static_cast<std::uint64_t>(lines)) * sim::kCacheLineBytes;
    switch (rng.Below(4)) {
      case 0:
        co_await m.mem().Read(core, addr);
        break;
      case 1:
        co_await m.mem().Write(core, addr);
        break;
      case 2:
        co_await m.mem().ReadPrefetched(core, addr);
        break;
      default:
        co_await m.mem().WritePosted(core, addr);
        break;
    }
    if (rng.Chance(0.2)) {
      co_await m.exec().Delay(rng.Below(500));
    }
  }
}

class CoherenceFuzz : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(CoherenceFuzz, InvariantsHoldUnderRandomTraffic) {
  const FuzzConfig& cfg = GetParam();
  sim::Executor exec;
  Machine m(exec, SpecByName(cfg.platform));
  Addr base = m.mem().AllocLines(0, static_cast<std::uint64_t>(cfg.lines));
  for (int c = 0; c < m.num_cores(); ++c) {
    exec.Spawn(FuzzWorker(m, c, base, cfg.lines, cfg.ops_per_core, cfg.seed));
  }
  exec.Run();

  std::uint64_t all_cores_mask =
      m.num_cores() == 64 ? ~0ULL : ((1ULL << m.num_cores()) - 1);
  for (int l = 0; l < cfg.lines; ++l) {
    Addr addr = base + static_cast<Addr>(l) * sim::kCacheLineBytes;
    std::uint64_t sharers = m.mem().SharersOf(addr);
    int owner = m.mem().OwnerOf(addr);
    // Invariant 1: sharers is a subset of existing cores.
    EXPECT_EQ(sharers & ~all_cores_mask, 0u);
    // Invariant 2: if a core owns the line (modified), it holds a copy...
    if (owner >= 0) {
      EXPECT_NE(sharers & (1ULL << owner), 0u) << "owner without a copy, line " << l;
      // ...and after the last access was a write, it is the only holder or
      // the line has since been read (owner + readers = MOESI owned state):
      // either way the owner must be a member. Stronger: no second *owner*.
      EXPECT_LT(owner, m.num_cores());
    }
    // Invariant 3: a line someone wrote has an owner or was never written;
    // HasLine agrees with the sharers bitmap.
    for (int c = 0; c < m.num_cores(); ++c) {
      EXPECT_EQ(m.mem().HasLine(c, addr), (sharers >> c) & 1);
    }
  }
  // Counters are self-consistent: every load/store is a hit or a miss.
  auto total = m.counters().Total();
  EXPECT_EQ(total.loads + total.stores, total.cache_hits + total.cache_misses);
  EXPECT_EQ(total.cache_misses, total.c2c_transfers + total.dram_fetches +
                                    (total.cache_misses - total.c2c_transfers -
                                     total.dram_fetches));
  EXPECT_LE(total.c2c_transfers + total.dram_fetches, total.cache_misses);
}

TEST_P(CoherenceFuzz, DeterministicReplay) {
  const FuzzConfig& cfg = GetParam();
  auto run = [&cfg] {
    sim::Executor exec;
    Machine m(exec, SpecByName(cfg.platform));
    Addr base = m.mem().AllocLines(0, static_cast<std::uint64_t>(cfg.lines));
    for (int c = 0; c < m.num_cores(); ++c) {
      exec.Spawn(FuzzWorker(m, c, base, cfg.lines, cfg.ops_per_core, cfg.seed));
    }
    Cycles end = exec.Run();
    auto total = m.counters().Total();
    return std::make_tuple(end, total.cache_misses, total.c2c_transfers,
                           m.counters().link_dwords(0, 1));
  };
  EXPECT_EQ(run(), run()) << "simulation is not deterministic";
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, CoherenceFuzz,
    ::testing::Values(FuzzConfig{"2x4-core Intel", 1, 8, 150},
                      FuzzConfig{"2x2-core AMD", 2, 4, 200},
                      FuzzConfig{"4x4-core AMD", 3, 16, 120},
                      FuzzConfig{"8x4-core AMD", 4, 32, 80},
                      FuzzConfig{"8x4-core AMD", 5, 1, 120},   // single hot line
                      FuzzConfig{"4x4-core AMD", 6, 256, 60}), // sparse
    [](const ::testing::TestParamInfo<FuzzConfig>& info) {
      std::string name = info.param.platform;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) {
          ch = '_';
        }
      }
      return name + "_seed" + std::to_string(info.param.seed);
    });

TEST(CoherenceProperty, ReadAfterRemoteWriteAlwaysMisses) {
  // For any pair of cores (a != b): after b writes, a's next read misses.
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  Addr addr = m.mem().AllocLines(2, 1);
  exec.Spawn([](Machine& mm, Addr a) -> Task<> {
    for (int writer = 0; writer < mm.num_cores(); ++writer) {
      for (int reader = 0; reader < mm.num_cores(); ++reader) {
        if (writer == reader) {
          continue;
        }
        co_await mm.mem().Write(writer, a);
        auto before = mm.counters().core(reader).cache_misses;
        co_await mm.mem().Read(reader, a);
        EXPECT_EQ(mm.counters().core(reader).cache_misses, before + 1)
            << "writer " << writer << " reader " << reader;
      }
    }
  }(m, addr));
  exec.Run();
}

TEST(CoherenceProperty, RepeatedLocalAccessAlwaysHits) {
  sim::Executor exec;
  Machine m(exec, Amd8x4());
  Addr addr = m.mem().AllocLines(0, 4);
  exec.Spawn([](Machine& mm, Addr a) -> Task<> {
    co_await mm.mem().Write(7, a, 4 * sim::kCacheLineBytes);
    auto misses_before = mm.counters().core(7).cache_misses;
    for (int i = 0; i < 50; ++i) {
      co_await mm.mem().Read(7, a, 4 * sim::kCacheLineBytes);
      co_await mm.mem().Write(7, a, 4 * sim::kCacheLineBytes);
    }
    EXPECT_EQ(mm.counters().core(7).cache_misses, misses_before);
  }(m, addr));
  exec.Run();
}

TEST(CoherenceProperty, TrafficOnlyOnUsedPaths) {
  // Traffic between two packages never touches links not on a shortest path.
  sim::Executor exec;
  Machine m(exec, Amd8x4());
  Addr addr = m.mem().AllocLines(0, 1);
  exec.Spawn([](Machine& mm, Addr a) -> Task<> {
    co_await mm.mem().Write(0, a);   // package 0
    co_await mm.mem().Read(4, a);    // package 1 (adjacent)
  }(m, addr));
  exec.Run();
  // The far corner pair (6 <-> 7) is not on any probe path that both starts
  // and ends at packages 0/1... probes broadcast, so instead assert that the
  // direct 0<->1 link carries the data payload.
  EXPECT_GE(m.counters().link_dwords(0, 1), std::uint64_t{Amd8x4().cost.data_dwords});
}

// --- Line directory ---

// The state a line must be in, kept by the test as it issues accesses: a read
// adds the reader to the sharers, a write leaves the writer as the only
// sharer and the owner.
struct LineRecord {
  std::uint64_t sharers = 0;
  int owner = -1;
};

constexpr std::uint64_t kBufferBytes = 2048;
constexpr std::uint64_t kBufferLines = kBufferBytes / sim::kCacheLineBytes;

// One node's receive ring of 2 KB buffers. Each buffer carries one frame of
// 2-24 lines; the rest of the buffer is never touched.
struct Ring {
  Addr base = 0;
  std::vector<int> frame_lines;     // per buffer
  std::vector<LineRecord> expect;   // per line of the ring
};

// Per buffer: one core writes the frame (the device side), then two cores
// read it (driver and application). Cores are drawn from the whole machine,
// so most transfers cross packages.
Task<> RingTraffic(Machine& m, Ring& ring, std::uint64_t seed) {
  sim::Rng rng(seed);
  const auto cores = static_cast<std::uint64_t>(m.num_cores());
  for (std::size_t b = 0; b < ring.frame_lines.size(); ++b) {
    const int lines = 2 + static_cast<int>(rng.Below(23));
    ring.frame_lines[b] = lines;
    const Addr frame = ring.base + b * kBufferBytes;
    const std::uint64_t bytes = static_cast<std::uint64_t>(lines) * sim::kCacheLineBytes;
    LineRecord* expect = &ring.expect[b * kBufferLines];

    const int writer = static_cast<int>(rng.Below(cores));
    if (rng.Chance(0.5)) {
      co_await m.mem().Write(writer, frame, bytes);
    } else {
      co_await m.mem().WritePosted(writer, frame, bytes);
    }
    for (int l = 0; l < lines; ++l) {
      expect[l] = LineRecord{1ULL << writer, writer};
    }
    for (int r = 0; r < 2; ++r) {
      const int reader = static_cast<int>(rng.Below(cores));
      if (rng.Chance(0.5)) {
        co_await m.mem().Read(reader, frame, bytes);
      } else {
        co_await m.mem().ReadPrefetched(reader, frame, bytes);
      }
      for (int l = 0; l < lines; ++l) {
        expect[l].sharers |= 1ULL << reader;
      }
    }
  }
}

TEST(CoherenceDirectory, NicRingPatternMatchesHostRecord) {
  sim::Executor exec;
  Machine m(exec, Amd8x4());
  const int nodes = m.topo().num_packages();
  constexpr int kBuffersPerNode = 160;
  std::vector<Ring> rings(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    Ring& ring = rings[static_cast<std::size_t>(n)];
    ring.base = m.mem().AllocLines(n, kBuffersPerNode * kBufferLines);
    ring.frame_lines.resize(kBuffersPerNode);
    ring.expect.resize(kBuffersPerNode * kBufferLines);
    exec.Spawn(RingTraffic(m, ring, 100 + static_cast<std::uint64_t>(n)));
  }
  exec.Run();

  std::uint64_t touched = 0;
  for (int n = 0; n < nodes; ++n) {
    const Ring& ring = rings[static_cast<std::size_t>(n)];
    for (std::size_t i = 0; i < ring.expect.size(); ++i) {
      const Addr addr = ring.base + i * sim::kCacheLineBytes;
      const bool in_frame =
          static_cast<int>(i % kBufferLines) < ring.frame_lines[i / kBufferLines];
      // Lines past a frame's end are the untouched neighbours: they must read
      // as never cached.
      const LineRecord want = in_frame ? ring.expect[i] : LineRecord{};
      touched += in_frame ? 1 : 0;
      ASSERT_EQ(m.mem().SharersOf(addr), want.sharers) << "node " << n << " line " << i;
      ASSERT_EQ(m.mem().OwnerOf(addr), want.owner) << "node " << n << " line " << i;
      for (int c = 0; c < m.num_cores(); ++c) {
        ASSERT_EQ(m.mem().HasLine(c, addr), ((want.sharers >> c) & 1) != 0)
            << "node " << n << " line " << i << ", core " << c;
      }
    }
  }
  // Enough distinct lines that the directory grows at least five times, even
  // from a 1024-slot start at 3/4 load (768 << 4 entries).
  EXPECT_GT(touched, std::uint64_t{768} << 4);
}

// Purge leaves lines that read as never cached, but each line keeps its
// cache-to-cache reservation: a re-read after the purge still queues behind
// the supply to readers issued before it.
TEST(CoherenceDirectory, PurgeReadsEmptyAndKeepsTheReservation) {
  sim::Executor exec;
  Machine m(exec, Amd8x4());
  constexpr std::uint64_t kLines = 2;
  const Addr base = m.mem().AllocLines(2, kLines);
  const std::uint64_t bytes = kLines * sim::kCacheLineBytes;
  Cycles reread = 0;
  exec.Spawn([](Machine& mm, Addr a, std::uint64_t n, Cycles& out) -> Task<> {
    co_await mm.mem().Write(0, a, n);
    // Three other packages read the first line at once and queue on its
    // cache-to-cache supply.
    for (int core : {4, 8, 12}) {
      mm.exec().Spawn([](Machine& m2, int c, Addr line) -> Task<> {
        co_await m2.mem().Read(c, line);
      }(mm, core, a));
    }
    co_await mm.exec().Delay(1);
    mm.mem().Purge(a, n);
    for (Addr line = a; line < a + n; line += sim::kCacheLineBytes) {
      EXPECT_EQ(mm.mem().SharersOf(line), 0u);
      EXPECT_EQ(mm.mem().OwnerOf(line), -1);
      for (int c = 0; c < mm.num_cores(); ++c) {
        EXPECT_FALSE(mm.mem().HasLine(c, line)) << "core " << c;
      }
    }
    co_await mm.mem().Write(0, a, n);
    out = co_await mm.mem().Read(16, a, n);
  }(m, base, bytes, reread));
  exec.Run();
  // Two 309-cycle transfers from package 0 to package 4, plus 149 cycles
  // queued behind the supply to the three earlier readers. Dropping the
  // reservation at Purge would give 618.
  EXPECT_EQ(reread, Cycles{767});
}

}  // namespace
}  // namespace mk::hw
