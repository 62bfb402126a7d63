// Simulated e1000e/82576-class gigabit NIC: N RX/TX queue pairs with
// descriptor rings in (simulated) shared memory, DMA paced at line rate on a
// single shared wire, a seeded RSS hash steering inbound flows to queues, and
// per-queue interrupts routed to each queue's configured core (section 4.2:
// "device interrupts are routed in hardware to the appropriate core,
// demultiplexed by that core's CPU driver, and delivered to the driver
// process as a message"). The single-queue configuration (the default) is
// bit-identical to the original single-ring device.
#ifndef MK_NET_NIC_H_
#define MK_NET_NIC_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "hw/machine.h"
#include "net/wire.h"
#include "sim/event.h"
#include "sim/task.h"
#include "sim/types.h"
#include "trace/trace.h"

namespace mk::net {

using sim::Cycles;
using sim::Task;

class SimNic {
 public:
  struct Config {
    int rx_descs = 256;  // per RX queue
    int tx_descs = 256;  // per TX queue
    double gbps = 1.0;   // line rate (shared by all queues: one wire)
    int node = 0;        // NUMA node of rings and buffers

    // --- Multi-queue (82576-class) ---
    int queues = 1;  // RX/TX queue pairs; flows steered by RSS over 4-tuples
    // RSS indirection table (RETA) slots: the hash picks a slot, the slot
    // names a queue. 0 means `queues` slots with the identity mapping, which
    // is bit-identical to direct `hash % queues` steering for every queue
    // count (a fixed 128-slot table would not be: `hash % 128 % q` differs
    // from `hash % q` for non-power-of-2 q). Failover reprograms entries at
    // runtime to move a dead queue's flows onto survivors.
    int reta_slots = 0;
    // Per-queue interrupt routing: queue q's interrupts go to irq_cores[q].
    // Empty sends every queue to core 0; any other list must name one core
    // per queue, or the constructor throws std::invalid_argument.
    std::vector<int> irq_cores;
    // MSI-style delivery delay between the frame landing in the ring and the
    // IRQ reaching its core (the same fabric hop an IPI pays). 0 = the IRQ is
    // visible the instant DMA completes (the original single-ring model).
    Cycles irq_latency = 0;
  };

  // Per-queue counters; drops are attributed to the queue RSS steered the
  // frame to, so a hot shard's losses are visible in isolation.
  struct QueueStats {
    std::uint64_t rx_frames = 0;          // frames DMA'd into the RX ring
    std::uint64_t rx_overflow_drops = 0;  // RX ring full
    std::uint64_t rx_fault_drops = 0;     // injected wire loss (mk::fault)
    std::uint64_t tx_frames = 0;          // frames serialized onto the wire
    std::uint64_t tx_fault_drops = 0;     // injected loss after TX DMA
    std::uint64_t tx_ring_full = 0;       // DriverTxPush refused
    // Frames landing here only because the RETA was reprogrammed (the default
    // mapping would have steered them to the queue they were re-steered off).
    std::uint64_t rx_adopted = 0;
    std::uint64_t rx_drops() const { return rx_overflow_drops + rx_fault_drops; }
  };

  SimNic(hw::Machine& machine, Config config);

  // --- Wire side (load generators / link peer) ---

  // A frame arriving from the wire: paced at line rate, steered to an RX
  // queue by the RSS hash, DMA'd into that queue's ring (dropped if full),
  // IRQ raised to the queue's core if the queue's interrupts are enabled.
  Task<> InjectFromWire(Packet frame);

  // Frames the NIC has transmitted onto the wire (all TX queues merge here).
  bool WirePop(Packet* out);
  sim::Event& wire_out_ready() { return wire_out_ready_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }

  int num_queues() const { return config_.queues; }
  int irq_core(int queue = 0) const { return queues_[static_cast<std::size_t>(queue)]->irq_core; }
  const QueueStats& queue_stats(int queue) const {
    return queues_[static_cast<std::size_t>(queue)]->stats;
  }
  // The steering decision for a frame (pure, host-side): which RX queue the
  // RETA assigns its RSS hash to. Exposed so tests and load generators can
  // predict placement.
  int RssQueueFor(const Packet& frame) const;

  // --- RSS indirection table (runtime reprogrammable) ---

  int reta_slots() const { return static_cast<int>(reta_.size()); }
  int reta_entry(int slot) const { return reta_[static_cast<std::size_t>(slot)]; }
  // Failover: rewrites every RETA slot currently naming `dead_queue` to the
  // survivors, round-robin in the order given. Returns the number of slots
  // rewritten. Frames already sitting in the dead queue's RX ring stay there
  // (a real NIC cannot recall DMA'd descriptors); only future frames move.
  int ResteerQueue(int dead_queue, const std::vector<int>& survivors);

  // --- Driver side (per queue; the defaults keep single-queue callers) ---

  // Pops the next received frame from `queue`: charges the descriptor and
  // payload-buffer reads on `core`. Returns nullopt if the ring is empty.
  Task<std::optional<Packet>> DriverRxPop(int core, int queue = 0);
  bool RxReady(int queue = 0) const {
    return !queues_[static_cast<std::size_t>(queue)]->rx_ring.empty();
  }

  // The driver's per-frame work, run after the frame is popped and its
  // per-frame cost charged (hand it to a stack, forward it, steer it).
  using RxHandler = std::function<Task<>(Packet)>;

  // The e1000-style RX service loop for `queue`, run on `core`: while frames
  // are ready, mask the queue's interrupt, pop one, charge `frame_cost` on
  // `core` and await `handler`; when idle, re-arm the interrupt and park on
  // it, charging a trap on each interrupt wake. This is the one place that
  // owns the interrupt-mitigation policy. A parked loop schedules nothing,
  // so a run ends once its other work does, with the loop still parked.
  // Once `core` is fail-stop halted (hw::Machine::Halted) the loop returns
  // at its next wake: frames already DMA'd into the ring stay there, like a
  // real NIC whose servicing core died.
  Task<> ServeRx(int core, int queue, Cycles frame_cost, RxHandler handler);

  // Queues a frame for transmission on `queue`: charges descriptor + payload
  // writes, then the DMA engine serializes it onto the shared wire at line
  // rate. Returns false if the TX ring is full.
  Task<bool> DriverTxPush(int core, Packet frame, int queue = 0);

  // Interrupts: delivered only when enabled (drivers disable them while
  // polling, as e1000 drivers do). Masking is per queue; the handler runs at
  // IRQ delivery and the driver charges its own trap cost when it wakes.
  void SetInterruptsEnabled(int queue, bool enabled) {
    queues_[static_cast<std::size_t>(queue)]->irq_enabled = enabled;
  }
  sim::Event& rx_irq(int queue = 0) {
    return queues_[static_cast<std::size_t>(queue)]->rx_irq;
  }

  Cycles CyclesPerByte() const;

 private:
  struct Queue {
    explicit Queue(sim::Executor& exec) : rx_irq(exec) {}
    sim::Addr rx_desc_region = 0;
    sim::Addr tx_desc_region = 0;
    sim::Addr rx_buf_region = 0;
    sim::Addr tx_buf_region = 0;
    std::deque<Packet> rx_ring;
    std::uint64_t rx_slot = 0;
    std::uint64_t rx_pop_slot = 0;
    std::uint64_t tx_slot = 0;
    std::uint64_t tx_on_wire = 0;  // this queue's frames sitting in tx_wire_
    sim::Event rx_irq;
    bool irq_enabled = true;
    int irq_core = 0;
    QueueStats stats;
  };

  Task<> DmaOut(Packet frame, std::uint64_t flow, int queue);
  void RaiseRxIrq(int queue);
  // Adopted-flow accounting for a frame steered to `queue`; called only once
  // the RETA has been reprogrammed (zero work on the default mapping).
  void NoteAdoptedFlow(const Packet& frame, int queue);

  hw::Machine& machine_;
  Config config_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<int> reta_;          // slot -> queue
  bool reta_reprogrammed_ = false;
  std::vector<std::uint32_t> adopted_hashes_;  // flows already traced as adopted
  std::deque<std::pair<int, Packet>> tx_wire_;  // (source queue, frame)
  sim::FifoResource wire_in_;   // inbound line-rate pacing (one wire)
  sim::FifoResource wire_out_;  // outbound line-rate pacing (one wire)
  sim::Event wire_out_ready_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_dropped_ = 0;
};

}  // namespace mk::net

#endif  // MK_NET_NIC_H_
