// mk::trace tests: ring wraparound semantics, runtime category masking,
// cross-core flow pairing under the channel fuzz workload, Perfetto JSON
// well-formedness, and aggregator totals cross-checked against PerfCounters.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "hw/machine.h"
#include "hw/platform.h"
#include "kernel/cpu_driver.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "urpc/channel.h"

namespace mk::trace {
namespace {

using kernel::CpuDriver;
using sim::Cycles;
using sim::Task;

Record MakeRecord(Cycles cycle, int core, EventId event = EventId::kExecCycle,
                  Category cat = Category::kExec) {
  Record r;
  r.cycle = cycle;
  r.core = static_cast<std::uint16_t>(core);
  r.category = cat;
  r.event = event;
  return r;
}

TEST(TracerRing, WraparoundKeepsNewestAndCountsDrops) {
  Tracer t(/*capacity_per_core=*/8);
  for (Cycles c = 0; c < 20; ++c) {
    t.Append(MakeRecord(c, /*core=*/0));
  }
  EXPECT_EQ(t.dropped(0), 12u);
  EXPECT_EQ(t.total_dropped(), 12u);
  EXPECT_EQ(t.total_records(), 20u);  // exact totals unaffected by wraparound
  std::vector<Record> snap = t.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // The newest 8 records (cycles 12..19), oldest-first.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].cycle, 12 + i);
  }
}

TEST(TracerRing, PerCoreRingsAreIndependent) {
  Tracer t(/*capacity_per_core=*/4);
  for (Cycles c = 0; c < 10; ++c) {
    t.Append(MakeRecord(c, /*core=*/1));
  }
  t.Append(MakeRecord(100, /*core=*/3));
  EXPECT_EQ(t.dropped(1), 6u);
  EXPECT_EQ(t.dropped(3), 0u);
  EXPECT_EQ(t.dropped(2), 0u);  // untouched core: no ring, no drops
  EXPECT_EQ((std::vector<std::uint16_t>{1, 3}), t.active_tracks());
}

TEST(TracerMask, RuntimeMaskFiltersCategories) {
  if ((kCompiledCategories & (CategoryBit(Category::kIpi) | CategoryBit(Category::kExec))) !=
      (CategoryBit(Category::kIpi) | CategoryBit(Category::kExec))) {
    GTEST_SKIP() << "needs ipi+exec trace points compiled in";
  }
  {
    Tracer t(64, CategoryBit(Category::kIpi));  // everything but IPI masked off
    t.Install();
    ASSERT_EQ(Tracer::active(), &t);
    Emit<Category::kExec>(EventId::kExecCycle, 1, 0);
    Emit<Category::kIpi>(EventId::kIpiSend, 2, 0);
    EXPECT_EQ(t.total_records(), 1u);
    EXPECT_EQ(t.event_count(EventId::kIpiSend), 1u);
    EXPECT_EQ(t.event_count(EventId::kExecCycle), 0u);
    EXPECT_TRUE(Enabled<Category::kIpi>());
    EXPECT_FALSE(Enabled<Category::kExec>());
  }
  // Destruction uninstalls; emits become no-ops rather than crashes.
  EXPECT_EQ(Tracer::active(), nullptr);
  Emit<Category::kIpi>(EventId::kIpiSend, 3, 0);
}

TEST(TracerMask, ParseCategoryList) {
  std::uint32_t mask = 0;
  ASSERT_TRUE(ParseCategoryList("ipi,urpc,tlb", &mask));
  EXPECT_EQ(mask, CategoryBit(Category::kIpi) | CategoryBit(Category::kUrpc) |
                      CategoryBit(Category::kTlb));
  ASSERT_TRUE(ParseCategoryList("all", &mask));
  EXPECT_EQ(mask, kAllCategories);
  EXPECT_FALSE(ParseCategoryList("ipi,bogus", &mask));
}

// --- Flow pairing under the channel fuzz workload ---

Task<> FuzzSender(hw::Machine& m, urpc::Channel& ch, int count, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    if (rng.Chance(0.5)) {
      co_await ch.Send(urpc::Pack(0, i));
    } else {
      co_await ch.SendPosted(urpc::Pack(0, i));
    }
    if (rng.Chance(0.3)) {
      co_await m.exec().Delay(rng.Below(2000));
    }
  }
}

Task<> FuzzReceiver(hw::Machine& m, urpc::Channel& ch, int count, std::uint64_t seed) {
  sim::Rng rng(seed + 17);
  for (int i = 0; i < count; ++i) {
    if (rng.Chance(0.25)) {
      urpc::Message msg;
      if (co_await ch.TryRecv(&msg)) {
        continue;
      }
    }
    (void)co_await ch.Recv();
    if (rng.Chance(0.3)) {
      co_await m.exec().Delay(rng.Below(3000));
    }
  }
}

TEST(TraceFlows, UrpcFlowsPairOneSendWithOneReceive) {
  if ((kCompiledCategories & CategoryBit(Category::kUrpc)) == 0) {
    GTEST_SKIP() << "needs urpc trace points compiled in";
  }
  Tracer t(/*capacity_per_core=*/1 << 16);
  t.Install();
  constexpr int kMessages = 150;
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  urpc::ChannelOptions opts;
  opts.slots = 8;
  urpc::Channel ch(m, /*sender_core=*/0, /*receiver_core=*/12, opts);
  exec.Spawn(FuzzSender(m, ch, kMessages, 13));
  exec.Spawn(FuzzReceiver(m, ch, kMessages, 13));
  exec.Run();
  t.Uninstall();

  std::map<std::uint64_t, int> sends;
  std::map<std::uint64_t, int> recvs;
  for (const Record& r : t.Snapshot()) {
    if (r.event == EventId::kUrpcSend) {
      EXPECT_EQ(r.core, 0);
      EXPECT_EQ(r.phase, Phase::kSpanFlowOut);
      ++sends[r.flow];
    } else if (r.event == EventId::kUrpcRecv) {
      EXPECT_EQ(r.core, 12);
      EXPECT_EQ(r.phase, Phase::kSpanFlowIn);
      ++recvs[r.flow];
    }
  }
  EXPECT_EQ(sends.size(), static_cast<std::size_t>(kMessages));
  EXPECT_EQ(recvs.size(), static_cast<std::size_t>(kMessages));
  // Exactly one send and one receive per flow id, and the send never comes
  // after its receive completes... pairing is by id:
  for (const auto& [flow, n] : sends) {
    EXPECT_EQ(n, 1) << "flow " << flow;
    EXPECT_EQ(recvs.count(flow), 1u) << "flow " << flow;
  }
  for (const auto& [flow, n] : recvs) {
    EXPECT_EQ(n, 1) << "flow " << flow;
  }
}

TEST(TraceFlows, IpiFlowsPairAcrossCoresAndMatchPerfCounters) {
  if ((kCompiledCategories & CategoryBit(Category::kIpi)) == 0) {
    GTEST_SKIP() << "needs ipi trace points compiled in";
  }
  Tracer t(/*capacity_per_core=*/1 << 16);
  t.Install();
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  auto drivers = CpuDriver::BootAll(m);
  urpc::Channel ch(m, 0, 4);
  constexpr int kMessages = 40;
  exec.Spawn([](hw::Machine& mm, urpc::Channel& c, int n) -> Task<> {
    sim::Rng rng(77);
    for (int i = 0; i < n; ++i) {
      co_await mm.exec().Delay(rng.Below(12000));  // straddles the poll window
      co_await c.Send(urpc::Pack(0, i));
    }
  }(m, ch, kMessages));
  exec.Spawn([](urpc::Channel& c, CpuDriver& local, CpuDriver& snd, int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      (void)co_await c.RecvBlocking(local, snd, 3000);
    }
  }(ch, *drivers[4], *drivers[0], kMessages));
  exec.Run();
  t.Uninstall();

  const hw::CoreCounters total = m.counters().Total();
  ASSERT_GT(total.ipis_sent, 0u);
  // Aggregator totals are exact and match the hardware counters.
  EXPECT_EQ(t.event_count(EventId::kIpiSend), total.ipis_sent);
  EXPECT_EQ(t.event_count(EventId::kIpiRecv), total.ipis_received);
  // Each IPI flow has exactly one send (core 0) and one receive (core 4).
  std::map<std::uint64_t, std::pair<int, int>> flows;  // flow -> (sends, recvs)
  for (const Record& r : t.Snapshot()) {
    if (r.event == EventId::kIpiSend) {
      EXPECT_EQ(r.core, 0);
      ++flows[r.flow].first;
    } else if (r.event == EventId::kIpiRecv) {
      EXPECT_EQ(r.core, 4);
      ++flows[r.flow].second;
    }
  }
  EXPECT_EQ(flows.size(), total.ipis_sent);
  for (const auto& [flow, counts] : flows) {
    EXPECT_EQ(counts.first, 1) << "flow " << flow;
    EXPECT_EQ(counts.second, 1) << "flow " << flow;
    EXPECT_EQ(flow >> 56, 1u) << "IPI flow namespace";
  }
}

TEST(TraceAggregates, TlbEventCountsMatchPerfCounters) {
  Tracer t(/*capacity_per_core=*/1 << 12);
  t.Install();
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  exec.Spawn([](hw::Machine& mm) -> Task<> {
    mm.tlb(2).Insert(0x1000, {});
    mm.tlb(2).Insert(0x2000, {});
    co_await mm.tlb(2).Invalidate(0x1000);
    mm.tlb(2).InvalidateNoCost(0x2000);
    co_await mm.tlb(3).FlushAll();
    mm.tlb(3).FlushAllNoCost();
  }(m));
  exec.Run();
  t.Uninstall();
  const hw::CoreCounters total = m.counters().Total();
  if ((kCompiledCategories & CategoryBit(Category::kTlb)) == 0) {
    EXPECT_EQ(total.tlb_invalidations, 4u);  // counters advance regardless
    return;
  }
  EXPECT_EQ(t.event_count(EventId::kTlbInvalidate) + t.event_count(EventId::kTlbFlush),
            total.tlb_invalidations);
  EXPECT_EQ(t.event_count(EventId::kTlbInvalidate), 2u);
  EXPECT_EQ(t.event_count(EventId::kTlbFlush), 2u);
}

// --- Exporter ---

// Minimal JSON well-formedness checker (objects, arrays, strings, numbers,
// literals). Returns false on any syntax error.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    std::size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// The executor emits one kExecCycle record per dispatched cycle, its arg0
// counting every event of that cycle: a callback that re-schedules itself at
// the same cycle runs in the same pass and adds to the same record.
TEST(TraceExec, SameCycleRescheduleCountsInOneCycleRecord) {
  if ((kCompiledCategories & CategoryBit(Category::kExec)) == 0) {
    GTEST_SKIP() << "needs exec trace points compiled in";
  }
  struct Again {
    sim::Executor* exec;
    int* runs;
    void operator()() {
      if (++*runs < 2) {
        exec->CallAt(exec->now(), *this);
      }
    }
  };
  Tracer t(/*capacity_per_core=*/64);
  t.Install();
  sim::Executor exec;
  int runs = 0;
  exec.CallAt(5, Again{&exec, &runs});
  exec.Run();
  t.Uninstall();
  EXPECT_EQ(runs, 2);
  std::vector<Record> cycles;
  for (const Record& r : t.Snapshot()) {
    if (r.event == EventId::kExecCycle) {
      cycles.push_back(r);
    }
  }
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].cycle, 5u);
  EXPECT_EQ(cycles[0].arg0, 2u);
}

TEST(TraceExport, PerfettoJsonIsValidAndCarriesExpectedKeys) {
  // The record-content assertions need the urpc/ipi/kernel trace points in
  // the binary; under MK_TRACE_ENABLED=0 (the CI matrix leg) the exporter
  // still must produce valid, empty JSON.
  const bool compiled_in =
      (kCompiledCategories &
       (CategoryBit(Category::kUrpc) | CategoryBit(Category::kIpi))) ==
      (CategoryBit(Category::kUrpc) | CategoryBit(Category::kIpi));
  Tracer t(/*capacity_per_core=*/1 << 14);
  t.Install();
  t.BeginRun("export-test");
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  auto drivers = CpuDriver::BootAll(m);
  urpc::Channel ch(m, 0, 4);
  exec.Spawn([](hw::Machine& mm, urpc::Channel& c) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      co_await mm.exec().Delay(9000);
      co_await c.Send(urpc::Pack(0, i));
    }
  }(m, ch));
  exec.Spawn([](urpc::Channel& c, CpuDriver& local, CpuDriver& snd) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      (void)co_await c.RecvBlocking(local, snd, 1000);
    }
  }(ch, *drivers[4], *drivers[0]));
  exec.Run();
  t.Uninstall();

  std::ostringstream out;
  WritePerfettoJson(t, out);
  const std::string json = out.str();

  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  // Top-level Perfetto keys.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  if (!compiled_in) {
    return;
  }
  // Track metadata, spans, instants, and both flow endpoints.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"export-test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"urpc\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"ipi\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"urpc_send\""), std::string::npos);
}

TEST(TraceExport, SummaryTotalsAreConsistent) {
  Tracer t(/*capacity_per_core=*/4);  // tiny ring: force drops
  t.Install();
  sim::Executor exec;
  int sink = 0;
  for (int i = 0; i < 100; ++i) {
    exec.CallAt(static_cast<Cycles>(i), [&sink] { ++sink; });
  }
  exec.Run();
  t.Uninstall();
  Summary s = Summarize(t);
  EXPECT_EQ(s.total, t.total_records());
  EXPECT_EQ(s.retained + s.dropped, s.total);
  if ((kCompiledCategories & CategoryBit(Category::kExec)) != 0) {
    EXPECT_GT(s.dropped, 0u);  // the tiny ring must have wrapped
  }
  EXPECT_EQ(s.events[static_cast<std::size_t>(EventId::kExecCycle)],
            s.categories[static_cast<std::size_t>(Category::kExec)].count);
  std::ostringstream text;
  PrintSummary(t, text);
  if ((kCompiledCategories & CategoryBit(Category::kExec)) != 0) {
    EXPECT_NE(text.str().find("exec"), std::string::npos);
  }
}

}  // namespace
}  // namespace mk::trace
