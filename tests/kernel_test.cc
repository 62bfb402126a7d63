// Tests for the CPU driver: LRPC paths, endpoints, blocked-task wakeup.
#include <gtest/gtest.h>

#include <ostream>

#include "hw/machine.h"
#include "hw/platform.h"
#include "kernel/cpu_driver.h"
#include "sim/executor.h"

namespace mk::kernel {
namespace {

using sim::Cycles;
using sim::Task;

struct Fixture {
  explicit Fixture(hw::PlatformSpec spec = hw::Amd4x4())
      : machine(exec, std::move(spec)), drivers(CpuDriver::BootAll(machine)) {}
  sim::Executor exec;
  hw::Machine machine;
  std::vector<std::unique_ptr<CpuDriver>> drivers;
};

TEST(CpuDriver, BootAllCreatesOnePerCore) {
  Fixture f;
  EXPECT_EQ(f.drivers.size(), 16u);
  EXPECT_EQ(f.drivers[5]->core(), 5);
}

TEST(CpuDriver, LrpcCallRunsHandlerAfterOneWayPath) {
  Fixture f;
  CpuDriver& drv = *f.drivers[0];
  Cycles handler_at = 0;
  LrpcMsg got;
  auto ep = drv.RegisterEndpoint([&](const LrpcMsg& m) -> Task<> {
    handler_at = f.exec.now();
    got = m;
    co_return;
  });
  f.exec.Spawn([](CpuDriver& d, EndpointId e) -> Task<> {
    co_await d.LrpcCall(e, LrpcMsg{1, 2, 3, 4});
  }(drv, ep));
  f.exec.Run();
  EXPECT_EQ(handler_at, drv.LrpcOneWayCost());
  EXPECT_EQ(got.tag, 1u);
  EXPECT_EQ(got.arg2, 4u);
  EXPECT_EQ(drv.messages_delivered(), 1u);
}

// Table 1 calibration: LRPC one-way latency per platform.
struct LrpcCase {
  const char* platform;
  Cycles paper;
};

// Prints the case as text. gtest would print the bytes of `platform`, a
// pointer that moves every run, into the name each test is listed under.
void PrintTo(const LrpcCase& c, std::ostream* os) {
  *os << c.platform << ": " << c.paper << " cycles";
}

class LrpcCalibration : public ::testing::TestWithParam<LrpcCase> {};

TEST_P(LrpcCalibration, MatchesTable1) {
  const auto& p = GetParam();
  hw::PlatformSpec spec;
  for (auto& s : hw::PaperPlatforms()) {
    if (s.name == p.platform) {
      spec = s;
    }
  }
  ASSERT_FALSE(spec.name.empty());
  Fixture f(spec);
  EXPECT_EQ(f.drivers[0]->LrpcOneWayCost(), p.paper) << p.platform;
}

INSTANTIATE_TEST_SUITE_P(Table1, LrpcCalibration,
                         ::testing::Values(LrpcCase{"2x4-core Intel", 845},
                                           LrpcCase{"2x2-core AMD", 757},
                                           LrpcCase{"4x4-core AMD", 1463},
                                           LrpcCase{"8x4-core AMD", 1549}));

TEST(CpuDriver, LrpcSendIsSplitPhase) {
  Fixture f;
  CpuDriver& drv = *f.drivers[0];
  Cycles sender_resumed_at = 0;
  Cycles handler_at = 0;
  auto ep = drv.RegisterEndpoint([&](const LrpcMsg&) -> Task<> {
    handler_at = f.exec.now();
    co_return;
  });
  f.exec.Spawn([](sim::Executor& e, CpuDriver& d, EndpointId id, Cycles& out) -> Task<> {
    co_await d.LrpcSend(id, LrpcMsg{});
    out = e.now();
  }(f.exec, drv, ep, sender_resumed_at));
  f.exec.Run();
  // Sender pays only the syscall; delivery completes later.
  EXPECT_EQ(sender_resumed_at, f.machine.cost().syscall);
  EXPECT_GE(handler_at, sender_resumed_at);
}

TEST(CpuDriver, LrpcBadEndpointThrows) {
  Fixture f;
  bool threw = false;
  f.exec.Spawn([](CpuDriver& d, bool& out) -> Task<> {
    try {
      co_await d.LrpcCall(99, LrpcMsg{});
    } catch (const std::out_of_range&) {
      out = true;
    }
  }(*f.drivers[0], threw));
  f.exec.Run();
  EXPECT_TRUE(threw);
}

TEST(CpuDriver, LrpcCallsSerializeOnTheCore) {
  // Two concurrent callers on one core: kernel paths must not overlap.
  Fixture f;
  CpuDriver& drv = *f.drivers[0];
  auto ep = drv.RegisterEndpoint([](const LrpcMsg&) -> Task<> { co_return; });
  for (int i = 0; i < 2; ++i) {
    f.exec.Spawn([](CpuDriver& d, EndpointId e) -> Task<> {
      co_await d.LrpcCall(e, LrpcMsg{});
    }(drv, ep));
  }
  Cycles end = f.exec.Run();
  EXPECT_GE(end, 2 * drv.LrpcOneWayCost());
}

TEST(CpuDriver, WakeupIpiSignalsBlockedEventWithCostC) {
  Fixture f;
  CpuDriver& sleeper = *f.drivers[0];
  CpuDriver& waker = *f.drivers[4];
  Cycles woke_at = 0;
  sim::Event wake(f.exec);
  auto token = sleeper.RegisterBlocked(&wake);
  EXPECT_TRUE(sleeper.IsBlocked(token));
  f.exec.Spawn([](sim::Executor& e, sim::Event& ev, Cycles& out) -> Task<> {
    co_await ev.Wait();
    out = e.now();
  }(f.exec, wake, woke_at));
  f.exec.Spawn([](CpuDriver& w, CpuDriver& s, CpuDriver::WakeToken t) -> Task<> {
    co_await w.SendWakeupIpi(s, t);
  }(waker, sleeper, token));
  f.exec.Run();
  const auto& c = f.machine.cost();
  // Wake-up cost: IPI send + wire + trap + context switch + dispatch.
  Cycles min_cost = c.ipi_send + c.ipi_wire + c.trap + c.context_switch;
  EXPECT_GE(woke_at, min_cost);
  EXPECT_FALSE(sleeper.IsBlocked(token));
}

TEST(CpuDriver, CancelBlockedPreventsWake) {
  Fixture f;
  CpuDriver& sleeper = *f.drivers[0];
  sim::Event wake(f.exec);
  auto token = sleeper.RegisterBlocked(&wake);
  sleeper.CancelBlocked(token);
  EXPECT_FALSE(sleeper.IsBlocked(token));
  f.exec.Spawn([](CpuDriver& w, CpuDriver& s, CpuDriver::WakeToken t) -> Task<> {
    co_await w.SendWakeupIpi(s, t);
  }(*f.drivers[1], sleeper, token));
  f.exec.Run();
  EXPECT_EQ(wake.waiter_count(), 0u);  // nothing was waiting; no crash
}

TEST(CpuDriver, StaleWakeupIpiIsIgnored) {
  Fixture f;
  // IPI arrives with an empty pending queue: must be a no-op.
  f.exec.Spawn([](hw::Machine& m) -> Task<> {
    co_await m.ipi().Send(1, 0, kVectorWakeup);
  }(f.machine));
  f.exec.Run();
  SUCCEED();
}

}  // namespace
}  // namespace mk::kernel
