// CrossWire under load: delivery at exactly the lookahead bound, FIFO order
// per direction, full-duplex interleaving, host-thread invariance, and the
// cross-machine wire fault sites (drop / latency spike) with per-spec
// activation accounting.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/crosswire.h"
#include "net/nic.h"
#include "sim/parallel.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk {
namespace {

using sim::Cycles;
using sim::Task;

constexpr int kCore = 0;
constexpr Cycles kLatency = 10'000;

net::SimNic::Config WireNicConfig() {
  net::SimNic::Config cfg;
  // 100 Gb/s on a 2.8 GHz machine truncates to 0 cycles/byte, so pacing adds
  // nothing and arrival times are pure wire latency.
  cfg.gbps = 100.0;
  cfg.irq_cores = {kCore};
  return cfg;
}

// One machine per engine domain with a single wire-facing NIC.
struct WireHost {
  explicit WireHost(sim::Executor& exec)
      : machine(exec, hw::Amd2x2()), nic(machine, WireNicConfig()) {}

  hw::Machine machine;
  net::SimNic nic;
  std::vector<Cycles> arrivals;    // exec.now() at each frame pop
  std::vector<std::uint8_t> tags;  // first payload byte of each frame
};

// Sends `frames` equally spaced 64-byte frames tagged with their index,
// recording exec.now() as each TX push completes.
Task<> Sender(WireHost& w, int frames, Cycles start_delay, Cycles gap,
              std::vector<Cycles>* sends = nullptr) {
  co_await w.machine.exec().Delay(start_delay);
  for (int i = 0; i < frames; ++i) {
    net::Packet p(64, static_cast<std::uint8_t>(i + 1));
    (void)co_await w.nic.DriverTxPush(kCore, std::move(p));
    if (sends != nullptr) {
      sends->push_back(w.machine.exec().now());
    }
    if (gap > 0) {
      co_await w.machine.exec().Delay(gap);
    }
  }
}

// Polls at 1-cycle granularity so each pop timestamp is the exact cycle the
// frame became visible (RxReady) in this domain.
Task<> Receiver(WireHost& w, int expect) {
  while (static_cast<int>(w.arrivals.size()) < expect) {
    if (w.nic.RxReady()) {
      w.arrivals.push_back(w.machine.exec().now());
      auto frame = co_await w.nic.DriverRxPop(kCore);
      EXPECT_TRUE(frame.has_value());
      if (frame) {
        w.tags.push_back((*frame)[0]);
      }
      continue;
    }
    co_await w.machine.exec().Delay(1);
  }
}

struct TwoMachineWorld {
  explicit TwoMachineWorld(int threads) {
    sim::ParallelEngine::Options opts;
    opts.domains = 2;
    opts.threads = threads;
    engine = std::make_unique<sim::ParallelEngine>(opts);
    a = std::make_unique<WireHost>(engine->domain(0));
    b = std::make_unique<WireHost>(engine->domain(1));
    wire = std::make_unique<net::CrossWire>(*engine, 0, a->nic, 1, b->nic,
                                            kLatency);
  }
  // The pumps stay parked on their NICs after a run drains; stop them and
  // let them exit, so no task is left suspended at teardown.
  ~TwoMachineWorld() {
    wire->Stop();
    engine->Run();
  }

  std::unique_ptr<sim::ParallelEngine> engine;
  std::unique_ptr<WireHost> a;
  std::unique_ptr<WireHost> b;
  std::unique_ptr<net::CrossWire> wire;
};

TEST(CrossWireTest, BackToBackFramesFifoAtLookaheadBound) {
  TwoMachineWorld w(1);
  const int kFrames = 16;
  const Cycles kGap = 2'000;
  std::vector<Cycles> sends;
  w.wire->Start();
  w.engine->domain(0).Spawn(Sender(*w.a, kFrames, 1'000, kGap, &sends));
  w.engine->domain(1).Spawn(Receiver(*w.b, kFrames));
  w.engine->Run();

  ASSERT_EQ(static_cast<int>(w.b->arrivals.size()), kFrames);
  ASSERT_EQ(static_cast<int>(sends.size()), kFrames);
  for (int i = 0; i < kFrames; ++i) {
    // FIFO: tag i+1 is the i-th arrival.
    EXPECT_EQ(w.b->tags[static_cast<std::size_t>(i)], i + 1);
    // Conservative-lookahead contract: never visible before send + latency.
    EXPECT_GE(w.b->arrivals[static_cast<std::size_t>(i)],
              sends[static_cast<std::size_t>(i)] + kLatency)
        << "frame " << i;
  }
  // Exactly at the bound: with pacing truncated to zero the link adds a
  // fixed delay and nothing queues, so the arrival train reproduces the
  // departure spacing cycle-for-cycle.
  for (int i = 1; i < kFrames; ++i) {
    EXPECT_EQ(w.b->arrivals[static_cast<std::size_t>(i)] -
                  w.b->arrivals[static_cast<std::size_t>(i - 1)],
              sends[static_cast<std::size_t>(i)] -
                  sends[static_cast<std::size_t>(i - 1)])
        << "frame " << i;
  }
  EXPECT_EQ(w.wire->forwarded_ab(), static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(w.wire->dropped_ab(), 0u);
}

TEST(CrossWireTest, FullDuplexInterleavingKeepsBothDirectionsFifo) {
  TwoMachineWorld w(1);
  const int kFrames = 32;
  w.wire->Start();
  // Offset phases so pops of the two pumps interleave in simulated time.
  w.engine->domain(0).Spawn(Sender(*w.a, kFrames, 1'000, 700));
  w.engine->domain(1).Spawn(Sender(*w.b, kFrames, 1'350, 900));
  w.engine->domain(0).Spawn(Receiver(*w.a, kFrames));
  w.engine->domain(1).Spawn(Receiver(*w.b, kFrames));
  w.engine->Run();

  ASSERT_EQ(static_cast<int>(w.a->arrivals.size()), kFrames);
  ASSERT_EQ(static_cast<int>(w.b->arrivals.size()), kFrames);
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(w.a->tags[static_cast<std::size_t>(i)], i + 1);
    EXPECT_EQ(w.b->tags[static_cast<std::size_t>(i)], i + 1);
  }
  EXPECT_EQ(w.wire->forwarded_ab(), static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(w.wire->forwarded_ba(), static_cast<std::uint64_t>(kFrames));
}

// The full-duplex workload replayed at 1/2/4 host threads must produce the
// same arrival schedule bit-for-bit.
TEST(CrossWireTest, ReplayIsHostThreadInvariant) {
  const int kFrames = 32;
  std::vector<std::vector<Cycles>> arr_a;
  std::vector<std::vector<Cycles>> arr_b;
  std::vector<Cycles> max_nows;
  for (int threads : {1, 2, 4}) {
    TwoMachineWorld w(threads);
    w.wire->Start();
    w.engine->domain(0).Spawn(Sender(*w.a, kFrames, 1'000, 700));
    w.engine->domain(1).Spawn(Sender(*w.b, kFrames, 1'350, 900));
    w.engine->domain(0).Spawn(Receiver(*w.a, kFrames));
    w.engine->domain(1).Spawn(Receiver(*w.b, kFrames));
    w.engine->Run();
    arr_a.push_back(w.a->arrivals);
    arr_b.push_back(w.b->arrivals);
    max_nows.push_back(w.engine->max_now());
  }
  EXPECT_EQ(arr_a[0], arr_a[1]);
  EXPECT_EQ(arr_a[0], arr_a[2]);
  EXPECT_EQ(arr_b[0], arr_b[1]);
  EXPECT_EQ(arr_b[0], arr_b[2]);
  EXPECT_EQ(max_nows[0], max_nows[1]);
  EXPECT_EQ(max_nows[0], max_nows[2]);
}

TEST(CrossWireTest, WireDropFaultSiteConsumesAndCounts) {
  TwoMachineWorld w(1);
  const int kFrames = 12;
  fault::FaultPlan plan;
  plan.DropWireFrames(/*src_machine=*/0, /*dst_machine=*/1, /*at=*/0,
                      /*count=*/3);
  fault::Injector inj(plan);
  inj.Install();

  w.wire->Start();
  w.engine->domain(0).Spawn(Sender(*w.a, kFrames, 1'000, 500));
  w.engine->domain(1).Spawn(Receiver(*w.b, kFrames - 3));
  w.engine->Run();
  inj.Uninstall();

  EXPECT_EQ(w.wire->dropped_ab(), 3u);
  EXPECT_EQ(w.wire->forwarded_ab(), static_cast<std::uint64_t>(kFrames - 3));
  ASSERT_EQ(static_cast<int>(w.b->tags.size()), kFrames - 3);
  // The first three frames were eaten; FIFO resumes with tag 4.
  EXPECT_EQ(w.b->tags[0], 4);
  EXPECT_EQ(inj.injected(fault::FaultKind::kWireDrop), 3u);
  ASSERT_EQ(inj.num_specs(), 1u);
  EXPECT_EQ(inj.activations(0), 3u);
}

TEST(CrossWireTest, WireDelaySpikeWidensTheBoundAndCounts) {
  TwoMachineWorld w(1);
  const int kFrames = 10;
  const Cycles kExtra = 4'000;
  fault::FaultPlan plan;
  plan.WireDelay(/*src_machine=*/0, /*dst_machine=*/1, kExtra, /*at=*/0);
  fault::Injector inj(plan);
  inj.Install();

  std::vector<Cycles> sends;
  w.wire->Start();
  w.engine->domain(0).Spawn(Sender(*w.a, kFrames, 1'000, 2'000, &sends));
  w.engine->domain(1).Spawn(Receiver(*w.b, kFrames));
  w.engine->Run();
  inj.Uninstall();

  EXPECT_EQ(w.wire->delayed_ab(), static_cast<std::uint64_t>(kFrames));
  ASSERT_EQ(static_cast<int>(w.b->arrivals.size()), kFrames);
  for (int i = 0; i < kFrames; ++i) {
    // A spike only ever widens the wire's conservative bound.
    EXPECT_GE(w.b->arrivals[static_cast<std::size_t>(i)],
              sends[static_cast<std::size_t>(i)] + kLatency + kExtra);
  }
  ASSERT_EQ(inj.num_specs(), 1u);
  EXPECT_GT(inj.activations(0), 0u);
}

// A spec naming the reverse direction must never fire on this wire: the
// (src,dst) key is directional, and its activation count stays zero.
TEST(CrossWireTest, WrongPairSpecNeverActivates) {
  TwoMachineWorld w(1);
  const int kFrames = 8;
  fault::FaultPlan plan;
  plan.DropWireFrames(/*src_machine=*/1, /*dst_machine=*/0, /*at=*/0,
                      /*count=*/100);
  fault::Injector inj(plan);
  inj.Install();

  w.wire->Start();
  w.engine->domain(0).Spawn(Sender(*w.a, kFrames, 1'000, 500));
  w.engine->domain(1).Spawn(Receiver(*w.b, kFrames));
  w.engine->Run();
  inj.Uninstall();

  EXPECT_EQ(w.wire->dropped_ab(), 0u);
  EXPECT_EQ(w.wire->forwarded_ab(), static_cast<std::uint64_t>(kFrames));
  ASSERT_EQ(inj.num_specs(), 1u);
  EXPECT_EQ(inj.activations(0), 0u);
}

}  // namespace
}  // namespace mk
