// Property/fuzz tests for the coherence protocol: random concurrent access
// sequences must preserve the MOESI-style invariants on every platform, and
// the simulation must be deterministic. The line directory behind the model
// is checked against a record the test keeps itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <utility>
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

  Addr LineAddr(std::size_t i) const { return base + i * sim::kCacheLineBytes; }
  // Lines past a frame's end are the untouched neighbours: they must read as
  // never cached.
  bool InFrame(std::size_t i) const {
    return static_cast<int>(i % kBufferLines) < frame_lines[i / kBufferLines];
  }
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

// One ring of `buffers` buffers per node, each filled by its own RingTraffic
// task, run to the end.
std::vector<Ring> RunRings(sim::Executor& exec, Machine& m, std::size_t buffers) {
  std::vector<Ring> rings(static_cast<std::size_t>(m.topo().num_packages()));
  for (std::size_t n = 0; n < rings.size(); ++n) {
    Ring& ring = rings[n];
    ring.base = m.mem().AllocLines(static_cast<int>(n), buffers * kBufferLines);
    ring.frame_lines.resize(buffers);
    ring.expect.resize(buffers * kBufferLines);
    exec.Spawn(RingTraffic(m, ring, 100 + n));
  }
  exec.Run();
  return rings;
}

// Whether the directory reports `want` for the line at `addr`, and every
// core's HasLine agrees with it.
::testing::AssertionResult LineIs(Machine& m, Addr addr, const LineRecord& want) {
  if (m.mem().SharersOf(addr) != want.sharers) {
    return ::testing::AssertionFailure()
           << "sharers " << m.mem().SharersOf(addr) << ", want " << want.sharers;
  }
  if (m.mem().OwnerOf(addr) != want.owner) {
    return ::testing::AssertionFailure()
           << "owner " << m.mem().OwnerOf(addr) << ", want " << want.owner;
  }
  for (int c = 0; c < m.num_cores(); ++c) {
    if (m.mem().HasLine(c, addr) != (((want.sharers >> c) & 1) != 0)) {
      return ::testing::AssertionFailure() << "HasLine disagrees on core " << c;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CoherenceDirectory, NicRingPatternMatchesHostRecord) {
  sim::Executor exec;
  Machine m(exec, Amd8x4());
  const std::vector<Ring> rings = RunRings(exec, m, 160);

  std::uint64_t touched = 0;
  for (std::size_t n = 0; n < rings.size(); ++n) {
    const Ring& ring = rings[n];
    for (std::size_t i = 0; i < ring.expect.size(); ++i) {
      const bool in_frame = ring.InFrame(i);
      touched += in_frame ? 1 : 0;
      ASSERT_TRUE(LineIs(m, ring.LineAddr(i), in_frame ? ring.expect[i] : LineRecord{}))
          << "node " << n << " line " << i;
    }
  }
  // Each node's ring spans two 4,096-line leaves, and more lines are touched
  // than 512 groups of 8 hold, so the groups fill more than one slab chunk.
  EXPECT_GT(touched, std::uint64_t{512} * 8);
  EXPECT_EQ(m.mem().DirectoryLines(), touched);
}

// A 2 KB buffer is four whole 8-line groups, so freeing one releases every
// group its frame touched to the free list, while the other buffers' groups
// in the same leaf stay. Every kept line must still read as the host
// recorded it, and every freed line as never cached on every core.
TEST(CoherenceDirectory, FreeLinesKeepsEveryOtherLine) {
  sim::Executor exec;
  Machine m(exec, Amd8x4());
  constexpr std::size_t kBuffers = 30;
  const std::vector<Ring> rings = RunRings(exec, m, kBuffers);

  // A seeded random half of all buffers, freed in random order.
  std::vector<std::pair<std::size_t, std::size_t>> buffers;  // (node, buffer)
  for (std::size_t n = 0; n < rings.size(); ++n) {
    for (std::size_t b = 0; b < kBuffers; ++b) {
      buffers.emplace_back(n, b);
    }
  }
  sim::Rng rng(7);
  for (std::size_t i = buffers.size() - 1; i > 0; --i) {
    std::swap(buffers[i], buffers[rng.Below(i + 1)]);
  }
  std::vector<std::vector<bool>> freed(rings.size(), std::vector<bool>(kBuffers));
  for (std::size_t k = 0; k < buffers.size() / 2; ++k) {
    const auto [n, b] = buffers[k];
    m.mem().FreeLines(rings[n].LineAddr(b * kBufferLines), kBufferLines);
    freed[n][b] = true;
  }

  std::uint64_t kept = 0;
  for (std::size_t n = 0; n < rings.size(); ++n) {
    const Ring& ring = rings[n];
    for (std::size_t i = 0; i < ring.expect.size(); ++i) {
      const bool live = !freed[n][i / kBufferLines] && ring.InFrame(i);
      kept += live ? 1 : 0;
      ASSERT_TRUE(LineIs(m, ring.LineAddr(i), live ? ring.expect[i] : LineRecord{}))
          << "node " << n << " line " << i << (live ? " (kept)" : " (freed or untouched)");
    }
  }
  EXPECT_EQ(m.mem().DirectoryLines(), kept);
}

// A region that starts at slot 3 of a group and crosses the boundary between
// two 4,096-line leaves, on every node. A slice from its middle that starts
// and ends inside a group is freed first, then the rest. A group split by a
// free keeps its other lines' state, including those of the 3-line
// allocation before the region.
TEST(CoherenceDirectory, RegionAcrossGroupAndLeafBoundaries) {
  constexpr std::uint64_t kPad = 3;
  constexpr std::uint64_t kRegion = 5'000;      // the node's lines 3 to 5,002
  constexpr std::uint64_t kSliceBegin = 1'001;  // the node's line 1,004, slot 4
  constexpr std::uint64_t kSliceLines = 3'499;  // to line 4,502, slot 6
  sim::Executor exec;
  Machine m(exec, Amd8x4());
  const int nodes = m.topo().num_packages();
  const int cores = m.num_cores();
  std::vector<Addr> pads(nodes);
  std::vector<Addr> regions(nodes);
  // Per node, the pad's lines then the region's.
  std::vector<std::vector<LineRecord>> expect(nodes);
  for (int n = 0; n < nodes; ++n) {
    pads[n] = m.mem().AllocLines(n, kPad);
    regions[n] = m.mem().AllocLines(n, kRegion);
    ASSERT_EQ(regions[n], pads[n] + kPad * sim::kCacheLineBytes);
    expect[n].resize(kPad + kRegion);
    // Every seventh line is never touched; a core of the next package reads
    // every third.
    exec.Spawn([](Machine& mm, Addr base, int writer, int reader,
                  std::vector<LineRecord>& record) -> Task<> {
      for (std::size_t i = 0; i < record.size(); ++i) {
        const Addr addr = base + i * sim::kCacheLineBytes;
        if (i % 7 == 5) {
          continue;
        }
        co_await mm.mem().Write(writer, addr);
        record[i] = LineRecord{1ULL << writer, writer};
        if (i % 3 == 0) {
          co_await mm.mem().Read(reader, addr);
          record[i].sharers |= 1ULL << reader;
        }
      }
    }(m, pads[n], 4 * n, (4 * n + 5) % cores, expect[n]));
  }
  exec.Run();

  // Checks every line of every node; `live(i)` says whether a node's line i
  // (pad first) still holds its recorded state. Returns the live lines.
  auto check = [&](auto live) {
    std::uint64_t count = 0;
    for (int n = 0; n < nodes; ++n) {
      for (std::uint64_t i = 0; i < kPad + kRegion; ++i) {
        const bool keep = i % 7 != 5 && live(i);
        count += keep ? 1 : 0;
        EXPECT_TRUE(LineIs(m, pads[n] + i * sim::kCacheLineBytes,
                           keep ? expect[n][i] : LineRecord{}))
            << "node " << n << " line " << i;
      }
    }
    return count;
  };
  const std::uint64_t touched = check([](std::uint64_t) { return true; });
  EXPECT_EQ(m.mem().DirectoryLines(), touched);

  for (int n = 0; n < nodes; ++n) {
    m.mem().FreeLines(regions[n] + kSliceBegin * sim::kCacheLineBytes, kSliceLines);
  }
  const std::uint64_t kept = check([](std::uint64_t i) {
    return i < kPad + kSliceBegin || i >= kPad + kSliceBegin + kSliceLines;
  });
  EXPECT_LT(kept, touched);
  EXPECT_EQ(m.mem().DirectoryLines(), kept);

  for (int n = 0; n < nodes; ++n) {
    m.mem().FreeLines(regions[n], kSliceBegin);
    const std::uint64_t tail = kSliceBegin + kSliceLines;
    m.mem().FreeLines(regions[n] + tail * sim::kCacheLineBytes, kRegion - tail);
  }
  const std::uint64_t pad_lines = check([](std::uint64_t i) { return i < kPad; });
  EXPECT_EQ(m.mem().DirectoryLines(), pad_lines);
  for (int n = 0; n < nodes; ++n) {
    m.mem().FreeLines(pads[n], kPad);
  }
  EXPECT_EQ(m.mem().DirectoryLines(), 0u);
}

// Two 8-line groups, each of which gets a reservation block.
constexpr std::uint64_t kLines = 16;
constexpr int kReader = 1;   // the writer's package; holds no copy of the new lines
constexpr int kRemote = 31;  // package 7

Task<> ReadLineOnce(Machine& m, int core, Addr addr) { co_await m.mem().Read(core, addr); }

// The reader's DRAM fetch of a new line, then the remote core's read, which
// the reader supplies cache to cache.
Task<> FirstTwoReads(Machine& m, Addr addr, Cycles& remote_latency) {
  co_await m.mem().Read(kReader, addr);
  EXPECT_TRUE(LineIs(m, addr, LineRecord{1ULL << kReader, -1}));
  remote_latency = co_await m.mem().Read(kRemote, addr);
}

// Freed groups and their reservation blocks go to free lists and the next
// allocation gets them back. They must come back reset: a new line's first
// read is a DRAM fetch that leaves the reader as the only sharer and no
// owner, and a cross-package read right after it waits for no other supply,
// though the freed lines' supplier was booked far past that read.
TEST(CoherenceDirectory, FreedSlotsReadAsNeverCached) {
  sim::Executor exec;
  Machine m(exec, Amd8x4());
  const Addr old_lines = m.mem().AllocLines(0, kLines);
  exec.Spawn([](Machine& mm, Addr a) -> Task<> {
    co_await mm.mem().Write(0, a, kLines * sim::kCacheLineBytes);
  }(m, old_lines));
  exec.Run();

  // Each core outside package 0 reads each old line in the same cycle, so
  // core 0 supplies each line 28 times over and is booked ~9,000 cycles out.
  for (int core = 4; core < m.num_cores(); ++core) {
    for (std::uint64_t l = 0; l < kLines; ++l) {
      exec.Spawn(ReadLineOnce(m, core, old_lines + l * sim::kCacheLineBytes));
    }
  }
  // Still in that cycle: free the lines and allocate new ones.
  EXPECT_EQ(m.mem().DirectoryLines(), kLines);
  m.mem().FreeLines(old_lines, kLines);
  EXPECT_EQ(m.mem().DirectoryLines(), 0u);
  const Addr new_lines = m.mem().AllocLines(0, kLines);
  const std::uint64_t fetches_before = m.counters().core(kReader).dram_fetches;
  std::vector<Cycles> remote_latency(kLines);
  for (std::uint64_t l = 0; l < kLines; ++l) {
    exec.Spawn(FirstTwoReads(m, new_lines + l * sim::kCacheLineBytes, remote_latency[l]));
  }
  exec.Run();

  EXPECT_EQ(m.counters().core(kReader).dram_fetches - fetches_before, kLines);
  const CostBook& c = m.cost();
  const Cycles supply =
      c.cross_rt_base + c.cross_rt_per_hop * static_cast<Cycles>(
                                                 m.topo().HopsBetweenCores(kRemote, kReader));
  for (std::uint64_t l = 0; l < kLines; ++l) {
    EXPECT_EQ(remote_latency[l], supply) << "line " << l;
    EXPECT_TRUE(LineIs(m, new_lines + l * sim::kCacheLineBytes,
                       LineRecord{(1ULL << kReader) | (1ULL << kRemote), -1}))
        << "line " << l;
  }
  EXPECT_EQ(m.mem().DirectoryLines(), kLines);
}

// Whether awaiting `access` throws std::out_of_range.
Task<> Rejects(Task<Cycles> access, bool& rejected) {
  try {
    co_await std::move(access);
  } catch (const std::out_of_range&) {
    rejected = true;
  }
}

// An address AllocLines never returned has no home node. Every entry point
// that takes one throws instead of homing it on node 0, and touches nothing;
// the diagnostics read it as never cached.
TEST(CoherenceDirectory, UnallocatedAddressIsRejected) {
  sim::Executor exec;
  Machine m(exec, Amd4x4());
  const Addr node0 = m.mem().AllocLines(0, 2);
  const Addr node3 = m.mem().AllocLines(3, 1);
  const Addr region = (node3 - node0) / 3;  // one node's share of the address space
  const std::pair<const char*, Addr> unallocated[] = {
      {"below node 0's region", node0 - sim::kCacheLineBytes},
      {"in a fifth node's region", node0 + 4 * region},
      {"at node 0's cursor", node0 + 2 * sim::kCacheLineBytes},
      {"past node 3's cursor", node3 + 5 * sim::kCacheLineBytes},
      {"in node 1's region, which nothing allocated", node0 + region},
  };
  for (const auto& [where, addr] : unallocated) {
    SCOPED_TRACE(where);
    EXPECT_THROW(m.mem().HomeNode(addr), std::out_of_range);
    EXPECT_THROW(m.mem().FreeLines(addr, 1), std::out_of_range);
    bool rejected[4] = {};
    exec.Spawn(Rejects(m.mem().Read(0, addr), rejected[0]));
    exec.Spawn(Rejects(m.mem().ReadPrefetched(0, addr), rejected[1]));
    exec.Spawn(Rejects(m.mem().Write(0, addr), rejected[2]));
    exec.Spawn(Rejects(m.mem().WritePosted(0, addr), rejected[3]));
    exec.Run();
    EXPECT_TRUE(rejected[0]) << "Read";
    EXPECT_TRUE(rejected[1]) << "ReadPrefetched";
    EXPECT_TRUE(rejected[2]) << "Write";
    EXPECT_TRUE(rejected[3]) << "WritePosted";
    EXPECT_TRUE(LineIs(m, addr, LineRecord{}));
  }
  // A range that starts in node 0's two lines and runs past them.
  EXPECT_THROW(m.mem().FreeLines(node0, 3), std::out_of_range);
  bool rejected = false;
  exec.Spawn(Rejects(m.mem().Read(0, node0 + sim::kCacheLineBytes, 2 * sim::kCacheLineBytes),
                     rejected));
  exec.Run();
  EXPECT_TRUE(rejected);

  EXPECT_EQ(m.mem().DirectoryLines(), 0u);
  EXPECT_EQ(m.counters().Total().loads + m.counters().Total().stores, 0u);
  EXPECT_EQ(m.mem().HomeNode(node0 + sim::kCacheLineBytes), 0);
  EXPECT_EQ(m.mem().HomeNode(node3), 3);
}

}  // namespace
}  // namespace mk::hw
