// Machine: the assembled hardware model — topology, coherent memory, TLBs,
// IPI fabric, per-core execution resources, and performance counters.
#ifndef MK_HW_MACHINE_H_
#define MK_HW_MACHINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "hw/coherence.h"
#include "hw/counters.h"
#include "hw/platform.h"
#include "hw/tlb.h"
#include "hw/topology.h"
#include "sim/event.h"
#include "sim/executor.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::hw {

class Machine;

// Delivers inter-processor interrupts. The kernel registers one handler per
// core; delivery charges wire latency and invokes the handler, which is
// responsible for charging the receive-side trap cost. `payload` is a
// small out-of-band word carried with the vector (the wake-up path uses it
// for the blocked-waiter token, so wake-ups can never be misattributed when
// IPIs from different senders arrive out of send order).
class IpiFabric {
 public:
  using Handler = std::function<void(int vector, std::uint64_t payload)>;

  IpiFabric(sim::Executor& exec, const PlatformSpec& spec, const Topology& topo,
            PerfCounters& counters)
      : exec_(exec), spec_(spec), topo_(topo), counters_(counters),
        handlers_(topo.num_cores()) {}

  void SetHandler(int core, Handler handler) { handlers_[core] = std::move(handler); }

  // Charges the APIC command cost to the sender and schedules delivery. An
  // installed fault::Injector may drop the IPI (charged but never delivered),
  // delay it, or — if the destination has fail-stop halted — silence it.
  sim::Task<> Send(int from, int to, int vector, std::uint64_t payload = 0);

 private:
  sim::Executor& exec_;
  const PlatformSpec& spec_;
  const Topology& topo_;
  PerfCounters& counters_;
  std::vector<Handler> handlers_;
  std::uint64_t next_flow_ = 0;  // trace flow serial; advances whether or not tracing is on
};

class Machine {
 public:
  Machine(sim::Executor& exec, PlatformSpec spec);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  sim::Executor& exec() { return exec_; }
  const PlatformSpec& spec() const { return spec_; }
  const CostBook& cost() const { return spec_.cost; }
  const Topology& topo() const { return topo_; }
  int num_cores() const { return topo_.num_cores(); }

  CoherentMemory& mem() { return mem_; }
  IpiFabric& ipi() { return ipi_; }
  PerfCounters& counters() { return counters_; }
  Tlb& tlb(int core) { return *tlbs_[core]; }

  // Occupies `core` for `cycles` of computation. Concurrent Compute calls on
  // the same core serialize FIFO, modeling a busy core.
  sim::Task<> Compute(int core, sim::Cycles cycles);

  // Charges a trap (interrupt/exception entry + exit) on `core`.
  sim::Task<> Trap(int core);

  // Charges a system-call round trip on `core`.
  sim::Task<> Syscall(int core);

  // True if `core` has fail-stop halted by now: an installed fault::Injector
  // halted it. Always false with no injector. Code that dies with its core
  // (drivers, monitors, servers, replicas) asks this and nothing else.
  bool Halted(int core) const;

  // Hands out trace-flow serials for URPC channels built on this machine.
  // Serials are observer-only (they namespace flow ids, never the schedule)
  // and scoped to the machine rather than a process-wide counter, so under
  // the parallel engine channel construction in one domain neither races
  // with nor renumbers channels in another. The machine id (assigned at
  // construction, setup-time deterministic) keeps flows from colliding
  // across machines in one trace.
  std::uint64_t NextChannelSerial() {
    return (static_cast<std::uint64_t>(machine_id_) << 20) | ++channel_serial_;
  }
  int machine_id() const { return machine_id_; }

 private:
  sim::Executor& exec_;
  int machine_id_;
  std::uint64_t channel_serial_ = 0;
  PlatformSpec spec_;
  Topology topo_;
  PerfCounters counters_;
  CoherentMemory mem_;
  IpiFabric ipi_;
  std::vector<std::unique_ptr<Tlb>> tlbs_;
  std::vector<sim::FifoResource> core_busy_;
};

}  // namespace mk::hw

#endif  // MK_HW_MACHINE_H_
