#include "net/nic.h"

#include <algorithm>
#include <cassert>

#include "fault/fault.h"

namespace mk::net {
namespace {

constexpr std::uint64_t kBufBytes = 2048;  // one buffer per descriptor

// Trace flow ids: RX frames pair InjectFromWire with DriverRxPop (each ring
// is a FIFO, so matching enqueue/dequeue serials within a queue identify one
// frame); TX frames pair DriverTxPush with the DMA completion. The queue
// index lives in bits 32..39 so queue 0's ids are exactly the single-ring
// ids; kTxFlowBit (bit 40) stays clear of it.
constexpr std::uint64_t kTxFlowBit = std::uint64_t{1} << 40;

std::uint64_t RxFlow(int queue, std::uint64_t seq) {
  return trace::kFlowNet | (static_cast<std::uint64_t>(queue) << 32) |
         (seq & 0xffffffff);
}
std::uint64_t TxFlow(int queue, std::uint64_t seq) {
  return trace::kFlowNet | kTxFlowBit | (static_cast<std::uint64_t>(queue) << 32) |
         (seq & 0xffffffff);
}

}  // namespace

SimNic::SimNic(hw::Machine& machine, Config config)
    : machine_(machine), config_(config), wire_out_ready_(machine.exec()) {
  auto descs = static_cast<std::uint64_t>(config_.rx_descs);
  queues_.reserve(static_cast<std::size_t>(config_.queues));
  for (int q = 0; q < config_.queues; ++q) {
    auto queue = std::make_unique<Queue>(machine_.exec());
    // 16-byte descriptors: 4 per cache line. Per-queue regions are allocated
    // in the same order the single-ring device allocated its four regions, so
    // a one-queue NIC lands on the very same simulated addresses.
    queue->rx_desc_region = machine_.mem().AllocLines(config_.node, descs / 4 + 1);
    queue->tx_desc_region = machine_.mem().AllocLines(config_.node, descs / 4 + 1);
    queue->rx_buf_region =
        machine_.mem().AllocLines(config_.node, descs * kBufBytes / sim::kCacheLineBytes);
    queue->tx_buf_region =
        machine_.mem().AllocLines(config_.node, descs * kBufBytes / sim::kCacheLineBytes);
    queue->irq_core = q < static_cast<int>(config_.irq_cores.size())
                          ? config_.irq_cores[static_cast<std::size_t>(q)]
                          : config_.irq_core;
    queues_.push_back(std::move(queue));
  }
  // Identity RETA: reta_[hash % slots] == hash % queues when slots == queues,
  // so the default table is bit-identical to direct modulo steering.
  int slots = config_.reta_slots > 0 ? config_.reta_slots : config_.queues;
  reta_.resize(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) {
    reta_[static_cast<std::size_t>(i)] = i % config_.queues;
  }
}

int SimNic::ResteerQueue(int dead_queue, const std::vector<int>& survivors) {
  if (survivors.empty()) {
    return 0;
  }
  int rewritten = 0;
  std::size_t next = 0;
  for (std::size_t slot = 0; slot < reta_.size(); ++slot) {
    if (reta_[slot] == dead_queue) {
      reta_[slot] = survivors[next % survivors.size()];
      ++next;
      ++rewritten;
    }
  }
  if (rewritten > 0) {
    reta_reprogrammed_ = true;
    trace::Emit<trace::Category::kRecover>(
        trace::EventId::kRecoverResteer, machine_.exec().now(),
        queues_[static_cast<std::size_t>(survivors.front())]->irq_core,
        static_cast<std::uint64_t>(dead_queue),
        static_cast<std::uint64_t>(rewritten));
  }
  return rewritten;
}

Cycles SimNic::CyclesPerByte() const {
  // bits/byte * GHz / Gbps = cycles per byte on the wire.
  return static_cast<Cycles>(8.0 * machine_.spec().clock_ghz / config_.gbps);
}

int SimNic::RssQueueFor(const Packet& frame) const {
  if (config_.queues <= 1) {
    return 0;  // no hash drawn: single-queue steering is branch-free
  }
  std::optional<FlowTuple> tuple = ExtractFlowTuple(frame);
  if (!tuple.has_value()) {
    return 0;  // non-IP / runt frames go to the default queue, like real RSS
  }
  std::uint32_t hash = RssHash(config_.rss_seed, *tuple);
  return reta_[hash % static_cast<std::uint32_t>(reta_.size())];
}

void SimNic::NoteAdoptedFlow(const Packet& frame, int queue) {
  if (config_.queues <= 1) {
    return;
  }
  std::optional<FlowTuple> tuple = ExtractFlowTuple(frame);
  if (!tuple.has_value()) {
    return;
  }
  std::uint32_t hash = RssHash(config_.rss_seed, *tuple);
  int default_queue =
      static_cast<int>(hash % static_cast<std::uint32_t>(config_.queues));
  if (default_queue == queue) {
    return;  // the reprogrammed table agrees with the default for this flow
  }
  Queue& q = *queues_[static_cast<std::size_t>(queue)];
  ++q.stats.rx_adopted;
  if (std::find(adopted_hashes_.begin(), adopted_hashes_.end(), hash) ==
      adopted_hashes_.end()) {
    adopted_hashes_.push_back(hash);
    trace::Emit<trace::Category::kRecover>(
        trace::EventId::kRecoverFlowAdopt, machine_.exec().now(), q.irq_core,
        static_cast<std::uint64_t>(queue), hash);
  }
}

void SimNic::RaiseRxIrq(int queue) {
  Queue& q = *queues_[static_cast<std::size_t>(queue)];
  if (config_.irq_latency == 0) {
    // Legacy model: the interrupt is visible the instant DMA completes.
    trace::Emit<trace::Category::kNet>(trace::EventId::kNetIrq, machine_.exec().now(),
                                       q.irq_core, static_cast<std::uint64_t>(queue));
    q.rx_irq.Signal();
    return;
  }
  // MSI-style: the write crosses the fabric; once sent it is delivered even
  // if the driver masks the queue meanwhile (the poll loop absorbs spurious
  // wakeups, exactly as a real masked-then-cleared e1000 interrupt would).
  machine_.exec().CallAt(machine_.exec().now() + config_.irq_latency,
                         [this, queue] {
                           Queue& dq = *queues_[static_cast<std::size_t>(queue)];
                           trace::Emit<trace::Category::kNet>(
                               trace::EventId::kNetIrq, machine_.exec().now(),
                               dq.irq_core, static_cast<std::uint64_t>(queue));
                           dq.rx_irq.Signal();
                         });
}

Task<> SimNic::InjectFromWire(Packet frame) {
  // The wire delivers back-to-back frames at line rate (all queues share it).
  Cycles service = static_cast<Cycles>(frame.size() + 24) * CyclesPerByte();  // +preamble/IFG
  Cycles done = wire_in_.ReserveAt(machine_.exec().now(), service);
  co_await machine_.exec().Delay(done - machine_.exec().now());
  // RSS steering happens in hardware, before any integrity check: even a
  // frame corrupted on the wire lands on its flow's queue, so the drop is
  // attributed to the shard that owns the flow.
  int queue = RssQueueFor(frame);
  if (reta_reprogrammed_) {
    NoteAdoptedFlow(frame, queue);
  }
  Queue& q = *queues_[static_cast<std::size_t>(queue)];
  // Fault injection happens after the wire pacing (the bits still occupied
  // the link) but before the frame reaches the RX ring: a dropped frame never
  // existed as far as the driver is concerned; a corrupted one is delivered
  // and must be caught by the stack's checksums.
  if (fault::Injector* inj = fault::Injector::active()) {
    if (inj->ShouldDropRxFrame(machine_.exec().now(), queue)) {
      trace::Emit<trace::Category::kFault>(trace::EventId::kFaultFrameDrop,
                                           machine_.exec().now(), q.irq_core,
                                           frame.size(), 0);
      ++frames_dropped_;
      ++q.stats.rx_fault_drops;
      co_return;
    }
    if (inj->ShouldCorruptRxFrame(machine_.exec().now(), queue) && !frame.empty()) {
      trace::Emit<trace::Category::kFault>(trace::EventId::kFaultFrameCorrupt,
                                           machine_.exec().now(), q.irq_core,
                                           frame.size());
      frame.back() ^= 0xff;  // payload bit flip: survives to the L4 checksum
    }
  }
  if (q.rx_ring.size() >= static_cast<std::size_t>(config_.rx_descs)) {
    ++frames_dropped_;
    ++q.stats.rx_overflow_drops;
    co_return;
  }
  // DMA into the buffer + descriptor write-back (the NIC owns these stores;
  // they invalidate the driver's cached copies, which is charged when the
  // driver reads them in DriverRxPop).
  std::uint64_t seq = q.rx_slot++;
  trace::Emit<trace::Category::kNet>(trace::EventId::kNetRxWire, machine_.exec().now(),
                                     q.irq_core, frame.size(),
                                     static_cast<std::uint64_t>(queue),
                                     RxFlow(queue, seq), trace::Phase::kFlowOut);
  q.rx_ring.push_back(std::move(frame));
  ++q.stats.rx_frames;
  if (q.irq_enabled) {
    RaiseRxIrq(queue);
  }
}

Task<std::optional<Packet>> SimNic::DriverRxPop(int core, int queue) {
  Queue& q = *queues_[static_cast<std::size_t>(queue)];
  if (q.rx_ring.empty()) {
    co_return std::nullopt;
  }
  const Cycles start = machine_.exec().now();
  Packet frame = std::move(q.rx_ring.front());
  q.rx_ring.pop_front();
  std::uint64_t seq = q.rx_pop_slot++;
  std::uint64_t slot = seq % static_cast<std::uint64_t>(config_.rx_descs);
  // Descriptor read (the NIC's write-back invalidated it) + payload read.
  co_await machine_.mem().Read(core, q.rx_desc_region + (slot / 4) * sim::kCacheLineBytes);
  co_await machine_.mem().Read(core, q.rx_buf_region + slot * kBufBytes, frame.size());
  // Descriptor recycle: hand the buffer back to the NIC.
  co_await machine_.mem().WritePosted(core,
                                      q.rx_desc_region + (slot / 4) * sim::kCacheLineBytes);
  trace::EmitSpan<trace::Category::kNet>(trace::EventId::kNetRxPop, start,
                                         machine_.exec().now(), core, frame.size(),
                                         RxFlow(queue, seq), trace::Phase::kSpanFlowIn);
  co_return frame;
}

Task<> SimNic::ServeRx(int core, int queue, Cycles frame_cost, RxHandler handler) {
  while (true) {
    if (machine_.Halted(core)) {
      co_return;  // the driver dies with its core
    }
    if (RxReady(queue)) {
      SetInterruptsEnabled(queue, false);
      auto frame = co_await DriverRxPop(core, queue);
      if (frame) {
        co_await machine_.Compute(core, frame_cost);
        co_await handler(std::move(*frame));
      }
      continue;
    }
    SetInterruptsEnabled(queue, true);
    if (RxReady(queue)) {
      continue;
    }
    co_await rx_irq(queue).Wait();
    co_await machine_.Trap(core);
  }
}

Task<bool> SimNic::DriverTxPush(int core, Packet frame, int queue) {
  Queue& q = *queues_[static_cast<std::size_t>(queue)];
  if (q.tx_on_wire >= static_cast<std::uint64_t>(config_.tx_descs)) {
    ++q.stats.tx_ring_full;
    co_return false;
  }
  const Cycles start = machine_.exec().now();
  std::uint64_t seq = q.tx_slot++;
  std::uint64_t slot = seq % static_cast<std::uint64_t>(config_.tx_descs);
  // Payload copy into the DMA buffer + descriptor write + doorbell.
  co_await machine_.mem().WritePosted(core, q.tx_buf_region + slot * kBufBytes, frame.size());
  co_await machine_.mem().Write(core, q.tx_desc_region + (slot / 4) * sim::kCacheLineBytes);
  trace::EmitSpan<trace::Category::kNet>(trace::EventId::kNetTxPush, start,
                                         machine_.exec().now(), core, frame.size(),
                                         TxFlow(queue, seq), trace::Phase::kSpanFlowOut);
  machine_.exec().Spawn(DmaOut(std::move(frame), TxFlow(queue, seq), queue));
  co_return true;
}

Task<> SimNic::DmaOut(Packet frame, std::uint64_t flow, int queue) {
  Queue& q = *queues_[static_cast<std::size_t>(queue)];
  Cycles service = static_cast<Cycles>(frame.size() + 24) * CyclesPerByte();
  Cycles done = wire_out_.ReserveAt(machine_.exec().now(), service);
  co_await machine_.exec().Delay(done - machine_.exec().now());
  if (fault::Injector* inj = fault::Injector::active();
      inj != nullptr && inj->ShouldDropTxFrame(machine_.exec().now(), queue)) {
    // The DMA engine serialized the frame, but the wire ate it.
    trace::Emit<trace::Category::kFault>(trace::EventId::kFaultFrameDrop,
                                         machine_.exec().now(), q.irq_core,
                                         frame.size(), 1);
    ++frames_dropped_;
    ++q.stats.tx_fault_drops;
    co_return;
  }
  trace::Emit<trace::Category::kNet>(trace::EventId::kNetTxWire, machine_.exec().now(),
                                     q.irq_core, frame.size(),
                                     static_cast<std::uint64_t>(queue), flow,
                                     trace::Phase::kFlowIn);
  tx_wire_.emplace_back(queue, std::move(frame));
  ++q.tx_on_wire;
  ++q.stats.tx_frames;
  ++frames_sent_;
  wire_out_ready_.Signal();
}

bool SimNic::WirePop(Packet* out) {
  if (tx_wire_.empty()) {
    return false;
  }
  auto& [queue, frame] = tx_wire_.front();
  --queues_[static_cast<std::size_t>(queue)]->tx_on_wire;
  *out = std::move(frame);
  tx_wire_.pop_front();
  return true;
}

}  // namespace mk::net
