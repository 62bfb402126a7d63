#include "hw/machine.h"

#include <atomic>

#include "fault/fault.h"

namespace mk::hw {
namespace {

// Machines are constructed in setup code (before any engine run), so this is
// deterministic program order; atomic only so a stray runtime construction
// cannot tear. Ids feed Machine::NextChannelSerial's flow namespace.
std::atomic<int> g_next_machine_id{0};

}  // namespace

sim::Task<> IpiFabric::Send(int from, int to, int vector, std::uint64_t payload) {
  ++counters_.core(from).ipis_sent;
  const CostBook& c = spec_.cost;
  int hops = topo_.Hops(topo_.PackageOf(from), topo_.PackageOf(to));
  sim::Cycles wire = c.ipi_wire + c.cross_rt_per_hop * static_cast<sim::Cycles>(hops);
  // Flow serial advances unconditionally so runs are identical with tracing
  // on or off.
  const std::uint64_t flow = trace::kFlowIpi | ++next_flow_;
  if (fault::Injector* inj = fault::Injector::active()) {
    if (inj->ShouldDropIpi(exec_.now(), from, to)) {
      // Dropped in the fabric: the sender still pays the APIC command cost,
      // the destination never hears about it.
      trace::Emit<trace::Category::kFault>(trace::EventId::kFaultIpiDrop, exec_.now(),
                                           from, static_cast<std::uint64_t>(to),
                                           static_cast<std::uint64_t>(vector));
      co_await exec_.Delay(c.ipi_send);
      co_return;
    }
    if (sim::Cycles extra = inj->IpiExtraDelay(exec_.now(), from, to); extra > 0) {
      trace::Emit<trace::Category::kFault>(trace::EventId::kFaultIpiDelay, exec_.now(),
                                           from, static_cast<std::uint64_t>(to), extra);
      wire += extra;
    }
  }
  trace::Emit<trace::Category::kIpi>(trace::EventId::kIpiSend, exec_.now(), from,
                                     static_cast<std::uint64_t>(to),
                                     static_cast<std::uint64_t>(vector), flow,
                                     trace::Phase::kFlowOut);
  auto arrive = [this, from, to, vector, payload, flow] {
    // A fail-stop core takes no interrupts: the IPI reaches a dead APIC.
    if (fault::Injector* inj = fault::Injector::active();
        inj != nullptr && inj->CoreHalted(to, exec_.now())) {
      return;
    }
    ++counters_.core(to).ipis_received;
    trace::Emit<trace::Category::kIpi>(trace::EventId::kIpiRecv, exec_.now(), to,
                                       static_cast<std::uint64_t>(from),
                                       static_cast<std::uint64_t>(vector), flow,
                                       trace::Phase::kFlowIn);
    if (handlers_[to]) {
      handlers_[to](vector, payload);
    }
  };
  // Per-IPI arrival closure: must stay within the inline callback budget so
  // interrupt fan-outs (e.g. multicast shootdowns) never heap-allocate.
  static_assert(sizeof(arrive) <= sim::InlineCallback::kInlineBytes);
  exec_.CallAt(exec_.now() + c.ipi_send + wire, std::move(arrive));
  co_await exec_.Delay(c.ipi_send);
}

Machine::Machine(sim::Executor& exec, PlatformSpec spec)
    : exec_(exec),
      machine_id_(g_next_machine_id.fetch_add(1, std::memory_order_relaxed)),
      spec_(std::move(spec)),
      topo_(spec_),
      counters_(topo_.num_cores(), topo_.num_packages()),
      mem_(exec_, spec_, topo_, counters_),
      ipi_(exec_, spec_, topo_, counters_),
      core_busy_(topo_.num_cores()) {
  tlbs_.reserve(topo_.num_cores());
  for (int c = 0; c < topo_.num_cores(); ++c) {
    tlbs_.push_back(std::make_unique<Tlb>(exec_, spec_.cost, counters_.core(c), c));
  }
}

sim::Task<> Machine::Compute(int core, sim::Cycles cycles) {
  // Heterogeneous cores: a slower core takes proportionally longer for the
  // same work (section 2.2). Speeds default to 1.0.
  double speed = spec_.SpeedOf(core);
  auto scaled = static_cast<sim::Cycles>(static_cast<double>(cycles) / speed);
  sim::Cycles done = core_busy_[core].ReserveAt(exec_.now(), scaled);
  co_await exec_.Delay(done - exec_.now());
}

sim::Task<> Machine::Trap(int core) {
  ++counters_.core(core).traps;
  const sim::Cycles start = exec_.now();
  co_await Compute(core, spec_.cost.trap);
  trace::EmitSpan<trace::Category::kKernel>(trace::EventId::kTrap, start, exec_.now(),
                                            core);
}

sim::Task<> Machine::Syscall(int core) {
  const sim::Cycles start = exec_.now();
  co_await Compute(core, spec_.cost.syscall);
  trace::EmitSpan<trace::Category::kKernel>(trace::EventId::kSyscall, start, exec_.now(),
                                            core);
}

bool Machine::Halted(int core) const {
  fault::Injector* inj = fault::Injector::active();
  return inj != nullptr && inj->CoreHalted(core, exec_.now());
}

}  // namespace mk::hw
