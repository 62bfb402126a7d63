// Property/fuzz tests for URPC channels: under randomized send/receive
// interleavings and every channel configuration, messages are delivered
// exactly once, in order, within the flow-control window, deterministically.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "hw/machine.h"
#include "hw/platform.h"
#include "kernel/cpu_driver.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "urpc/channel.h"

namespace mk::urpc {
namespace {

using kernel::CpuDriver;
using sim::Cycles;
using sim::Task;

struct FuzzCase {
  std::uint64_t seed;
  int slots;
  bool prefetch;
  int numa_node;
  int sender;
  int receiver;
  int messages;
};

// Prints the case as text. gtest would print its raw bytes, uninitialised
// padding included, into the name each test is listed under.
void PrintTo(const FuzzCase& c, std::ostream* os) {
  *os << "seed " << c.seed << ": " << c.messages << " messages, core " << c.sender
      << " to " << c.receiver << ", " << c.slots << "-slot window"
      << (c.prefetch ? ", prefetch" : "");
  if (c.numa_node >= 0) {
    *os << ", buffer on node " << c.numa_node;
  }
}

Task<> FuzzSender(hw::Machine& m, Channel& ch, int count, std::uint64_t seed,
                  std::uint64_t* max_inflight) {
  sim::Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    if (rng.Chance(0.5)) {
      co_await ch.Send(Pack(0, i));
    } else {
      co_await ch.SendPosted(Pack(0, i));
    }
    std::uint64_t inflight = ch.pending();
    if (inflight > *max_inflight) {
      *max_inflight = inflight;
    }
    if (rng.Chance(0.3)) {
      co_await m.exec().Delay(rng.Below(2000));
    }
  }
}

Task<> FuzzReceiver(hw::Machine& m, Channel& ch, int count, std::uint64_t seed,
                    std::vector<int>* got) {
  sim::Rng rng(seed + 17);
  for (int i = 0; i < count; ++i) {
    if (rng.Chance(0.25)) {
      // Mix TryRecv polling into the blocking receive path.
      Message msg;
      if (co_await ch.TryRecv(&msg)) {
        got->push_back(Unpack<int>(msg));
        continue;
      }
    }
    Message msg = co_await ch.Recv();
    got->push_back(Unpack<int>(msg));
    if (rng.Chance(0.3)) {
      co_await m.exec().Delay(rng.Below(3000));
    }
  }
}

class ChannelFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ChannelFuzz, ExactlyOnceInOrderWithinWindow) {
  const FuzzCase& c = GetParam();
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  ChannelOptions opts;
  opts.slots = c.slots;
  opts.prefetch = c.prefetch;
  opts.numa_node = c.numa_node;
  Channel ch(m, c.sender, c.receiver, opts);
  std::vector<int> got;
  std::uint64_t max_inflight = 0;
  exec.Spawn(FuzzSender(m, ch, c.messages, c.seed, &max_inflight));
  exec.Spawn(FuzzReceiver(m, ch, c.messages, c.seed, &got));
  exec.Run();
  // Exactly once, in order.
  ASSERT_EQ(got.size(), static_cast<std::size_t>(c.messages));
  for (int i = 0; i < c.messages; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  }
  // Flow control: never more than `slots` undelivered messages.
  EXPECT_LE(max_inflight, static_cast<std::uint64_t>(c.slots));
  EXPECT_EQ(ch.pending(), 0u);
  // Acks are published lazily and the sender refreshes its view only when it
  // runs out of credits, so the quiesced view may be stale — but always within
  // bounds, and the channel must remain usable (liveness).
  EXPECT_GE(ch.SendCredits(), 0);
  EXPECT_LE(ch.SendCredits(), c.slots);
  exec.Spawn([](Channel& chan) -> Task<> {
    co_await chan.Send(Pack(0, -1));
    (void)co_await chan.Recv();
  }(ch));
  exec.Run();
  EXPECT_EQ(ch.pending(), 0u);
}

TEST_P(ChannelFuzz, DeterministicReplay) {
  const FuzzCase& c = GetParam();
  auto run = [&c] {
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd8x4());
    ChannelOptions opts;
    opts.slots = c.slots;
    opts.prefetch = c.prefetch;
    opts.numa_node = c.numa_node;
    Channel ch(m, c.sender, c.receiver, opts);
    std::vector<int> got;
    std::uint64_t max_inflight = 0;
    exec.Spawn(FuzzSender(m, ch, c.messages, c.seed, &max_inflight));
    exec.Spawn(FuzzReceiver(m, ch, c.messages, c.seed, &got));
    return exec.Run();
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChannelFuzz,
    ::testing::Values(FuzzCase{11, 1, false, -1, 0, 4, 80},    // tiny window
                      FuzzCase{12, 2, false, -1, 0, 1, 120},   // shared cache
                      FuzzCase{13, 8, true, -1, 0, 12, 150},   // prefetch, 2 hops
                      FuzzCase{14, 16, false, 3, 0, 12, 150},  // receiver-local
                      FuzzCase{15, 16, true, -1, 31, 0, 200},  // reverse direction
                      FuzzCase{16, 64, true, -1, 0, 28, 250}), // big window, far
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

TEST(ChannelBlocking, RandomArrivalsWithPollThenBlock) {
  // Poll-then-block receive under random arrival gaps: every message still
  // arrives exactly once, whether it lands in the poll window or after.
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  auto drivers = CpuDriver::BootAll(m);
  Channel ch(m, 0, 4);
  const int kMessages = 60;
  int received = 0;
  int ipi_wakeups_before = 0;
  (void)ipi_wakeups_before;
  exec.Spawn([](hw::Machine& mm, Channel& c, int n) -> Task<> {
    sim::Rng rng(77);
    for (int i = 0; i < n; ++i) {
      co_await mm.exec().Delay(rng.Below(12000));  // straddles the poll window
      co_await c.Send(Pack(0, i));
    }
  }(m, ch, kMessages));
  exec.Spawn([](Channel& c, CpuDriver& local, CpuDriver& snd, int n, int& out) -> Task<> {
    for (int i = 0; i < n; ++i) {
      Message msg = co_await c.RecvBlocking(local, snd, 3000);
      EXPECT_EQ(Unpack<int>(msg), i);
      ++out;
    }
  }(ch, *drivers[4], *drivers[0], kMessages, received));
  exec.Run();
  EXPECT_EQ(received, kMessages);
  // Some arrivals exceeded the poll window: IPI wake-ups actually happened.
  EXPECT_GT(m.counters().core(4).ipis_received, 0u);
}

TEST(ChannelBlocking, RecheckWindowSweepNeverStrandsOrMisdirectsWakeups) {
  // Hammers the RecvBlocking re-check window (RegisterBlocked -> posted
  // blocked-flag write): by sweeping the send instant in fine steps across
  // the block transition, some runs land the message exactly inside the
  // window. The receiver must then cancel its registration AND invalidate
  // the published wake token, so a sender that already sampled the blocked
  // flag posts a wake-up that maps to nothing — it must neither strand the
  // re-check path nor steal the wake-up of the unrelated waiter blocked on
  // the second channel of the same core.
  for (Cycles offset = 700; offset <= 2600; offset += 20) {
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd8x4());
    auto drivers = CpuDriver::BootAll(m);
    Channel near_ch(m, 1, 4);   // sender one hop away
    Channel far_ch(m, 28, 4);   // distant sender, same receiver core
    int got_near = -1;
    int got_far = -1;
    exec.Spawn([](hw::Machine& mm, Channel& c, Cycles at) -> Task<> {
      co_await mm.exec().Delay(at);
      co_await c.Send(Pack(0, 7));
    }(m, near_ch, offset));
    exec.Spawn([](hw::Machine& mm, Channel& c) -> Task<> {
      co_await mm.exec().Delay(40000);  // long after the near channel's race
      co_await c.Send(Pack(0, 9));
    }(m, far_ch));
    exec.Spawn([](Channel& c, CpuDriver& local, CpuDriver& snd, int& out) -> Task<> {
      out = Unpack<int>(co_await c.RecvBlocking(local, snd, 1000));
    }(near_ch, *drivers[4], *drivers[1], got_near));
    exec.Spawn([](Channel& c, CpuDriver& local, CpuDriver& snd, int& out) -> Task<> {
      out = Unpack<int>(co_await c.RecvBlocking(local, snd, 1000));
    }(far_ch, *drivers[4], *drivers[28], got_far));
    exec.Run();
    EXPECT_EQ(got_near, 7) << "send offset " << offset;
    EXPECT_EQ(got_far, 9) << "send offset " << offset;
    EXPECT_EQ(drivers[4]->blocked_count(), 0u)
        << "leaked blocked registration at offset " << offset;
    EXPECT_EQ(exec.live_tasks(), 0u) << "stranded waiter at offset " << offset;
  }
}

TEST(ChannelBlocking, TwoChannelsOneCoreBlockingFuzzIsExactAndDeterministic) {
  // Randomized version of the sweep: two senders at different hop distances
  // funnel into blocking receivers on one core, so blocked registrations,
  // in-flight wake IPIs, and re-check cancellations interleave on every
  // message. Exactly-once in-order delivery per channel, no leaked
  // registrations, and bit-identical replay.
  auto run = [](std::uint64_t seed, std::vector<int>* a_out, std::vector<int>* b_out,
                std::size_t* leaked) {
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd8x4());
    auto drivers = CpuDriver::BootAll(m);
    Channel a(m, 1, 4);
    Channel b(m, 28, 4);
    const int kMessages = 120;
    auto sender = [](hw::Machine& mm, Channel& ch, int n, std::uint64_t s) -> Task<> {
      sim::Rng rng(s);
      for (int i = 0; i < n; ++i) {
        // Gaps straddle the poll window so roughly half the receives block,
        // and many sends land inside the block transition.
        co_await mm.exec().Delay(rng.Below(2600));
        co_await ch.Send(Pack(0, i));
      }
    };
    auto receiver = [](Channel& ch, CpuDriver& local, CpuDriver& snd, int n,
                       std::vector<int>* got) -> Task<> {
      for (int i = 0; i < n; ++i) {
        got->push_back(Unpack<int>(co_await ch.RecvBlocking(local, snd, 1000)));
      }
    };
    exec.Spawn(sender(m, a, kMessages, seed));
    exec.Spawn(sender(m, b, kMessages, seed + 1));
    exec.Spawn(receiver(a, *drivers[4], *drivers[1], kMessages, a_out));
    exec.Spawn(receiver(b, *drivers[4], *drivers[28], kMessages, b_out));
    Cycles end = exec.Run();
    EXPECT_EQ(exec.live_tasks(), 0u) << "stranded waiter, seed " << seed;
    *leaked = drivers[4]->blocked_count();
    return end;
  };
  for (std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    std::vector<int> a1, b1, a2, b2;
    std::size_t leaked1 = 0;
    std::size_t leaked2 = 0;
    Cycles end1 = run(seed, &a1, &b1, &leaked1);
    Cycles end2 = run(seed, &a2, &b2, &leaked2);
    ASSERT_EQ(a1.size(), 120u) << "seed " << seed;
    ASSERT_EQ(b1.size(), 120u) << "seed " << seed;
    for (int i = 0; i < 120; ++i) {
      ASSERT_EQ(a1[static_cast<std::size_t>(i)], i) << "seed " << seed;
      ASSERT_EQ(b1[static_cast<std::size_t>(i)], i) << "seed " << seed;
    }
    EXPECT_EQ(leaked1, 0u) << "seed " << seed;
    EXPECT_EQ(leaked2, 0u) << "seed " << seed;
    EXPECT_EQ(end1, end2) << "nondeterministic replay, seed " << seed;
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(b1, b2);
  }
}

}  // namespace
}  // namespace mk::urpc
