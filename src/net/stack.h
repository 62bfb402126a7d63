// A small lwIP-like network stack instance, linked per application domain
// (section 4.10: "our current network stack runs a separate instance of lwIP
// per application").
//
// Functionally real: frames are built and parsed with checksums verified;
// TCP runs a proper handshake/sequence-number state machine with go-back-N
// retransmission. Processing costs are charged per frame on the stack's
// core: a fixed per-packet software cost plus a per-byte checksum cost
// charged on the L4 payload bytes actually summed (the paper's e1000 driver
// does not use checksum offload).
//
// TCP runs one segment path for both of its disciplines (DESIGN.md §15):
// one receive handler for known connections, one new-flow handler (listener
// test, SYN-cookie test, RST for unknown flows), one frame builder, one
// ephemeral-port allocator, one TcpConnect, and one timer path: every
// per-connection timer (go-back-N retransmit, connect deadline, read
// deadline, and lifecycle's SYN_RCVD expiry and TIME_WAIT reap) rides the
// stack's TimerWheel.
// Every stack answers unknown flows and late segments for abandoned
// handshakes with RST and re-ACKs out-of-order segments.
//
//   * lifecycle (SetLifecycle) — connection-scale realism: a true 3-way
//     handshake with a half-open SYN_RCVD state, FIN/ACK close with bounded
//     TIME_WAIT, a capped half-open table defended by SYN-cookie stateless
//     handshake completion, and abandoned-connect sweeping. Connections are
//     erased from the hashed connection table when their state machine
//     terminates and the application has Release()d them, so
//     100k-connection churn leaks neither table entries nor wheel slots.
//   * legacy (default) — the paper-bench subset, kept byte-identical to
//     every plain golden transcript by three decisions: the server accepts
//     on the SYN (2-way); close is a lone FIN; and connections are never
//     closed or erased (a RST, a lapsed connect deadline or a spent
//     retransmit budget only marks the peer gone or stops the timer). Its
//     retransmit timer is armed only while recover::Armed(), because the
//     fixed RTO also fires on segments that are queued, not lost.
#ifndef MK_NET_STACK_H_
#define MK_NET_STACK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "hw/machine.h"
#include "net/conn_table.h"
#include "net/timer_wheel.h"
#include "net/wire.h"
#include "recover/config.h"
#include "sim/event.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::net {

using sim::Cycles;
using sim::Task;

// Software cost book for the stack (calibrated against Table 4 / section
// 5.4's throughput figures).
struct StackCosts {
  Cycles per_packet_in = 2600;   // demux, header processing, pbuf management
  Cycles per_packet_out = 2200;  // header build, pbuf, interface hand-off
  double per_byte_checksum = 0.5;  // no hardware checksum offload
};

// TCP retransmission tuning (RTO, max retransmit rounds) lives in
// recover::RecoveryConfig — see src/recover/config.h. The retransmit timer
// rides the wheel on both disciplines; a legacy connection arms it only
// while recover::Armed(), a lifecycle one always.

// TCP connection states (lifecycle mode; legacy connections stay kLegacy
// for their whole life).
enum class TcpState : std::uint8_t {
  kLegacy,
  kSynSent,      // client, SYN out, handshake pending
  kSynRcvd,      // server, SYN-ACK out, client ACK pending (half-open)
  kEstablished,
  kFinWait1,     // active close: our FIN out, not yet acked
  kFinWait2,     // our FIN acked, peer's FIN pending
  kClosing,      // simultaneous close: both FINs seen, our FIN not yet acked
  kTimeWait,     // fully closed actively; parked for the bounded 2MSL
  kCloseWait,    // passive close: peer's FIN seen, app has not closed yet
  kLastAck,      // passive close: our FIN out, final ACK pending
  kClosed,
};

// Why a lifecycle connection reached kClosed (close() counters are split by
// these causes).
enum class CloseCause : std::uint8_t {
  kActiveFin,       // we closed first; FIN/ACK handshake + TIME_WAIT completed
  kPassiveFin,      // peer closed first; our FIN's final ACK arrived
  kReset,           // RST received
  kConnectTimeout,  // client handshake abandoned (bounded TcpConnect)
  kHalfOpenExpiry,  // server SYN_RCVD never completed (evicted)
  kRetxAbort,       // retransmit rounds exhausted; peer presumed dead
  kNumCauses,
};
inline constexpr std::size_t kNumCloseCauses =
    static_cast<std::size_t>(CloseCause::kNumCauses);
const char* CloseCauseName(CloseCause c);

// Lifecycle-mode tuning. `enabled` flips the stack from the legacy subset to
// the full state machine; the rest only applies when enabled.
struct TcpLifecycle {
  bool enabled = false;
  // How long an actively-closed connection is parked in TIME_WAIT before its
  // table entry is reaped (the bounded 2MSL).
  Cycles time_wait = 400'000;
  // How long a server half-open (SYN_RCVD) connection may wait for the
  // client's ACK before being evicted.
  Cycles syn_rcvd_timeout = 1'000'000;
  // Half-open cap: at or above this many SYN_RCVD entries, new SYNs are
  // answered with a stateless SYN-cookie SYN-ACK instead of creating state.
  // 0 = uncapped (no cookies).
  int max_half_open = 0;
};

class NetStack {
 public:
  NetStack(hw::Machine& machine, int core, Ipv4Addr ip, MacAddr mac,
           StackCosts costs = StackCosts());

  int core() const { return core_; }
  Ipv4Addr ip() const { return ip_; }
  const MacAddr& mac() const { return mac_; }

  // Where built frames go (a NIC driver channel, a PacketChannel, a test).
  using OutputFn = std::function<Task<>(Packet)>;
  void SetOutput(OutputFn out) { output_ = std::move(out); }

  // Static ARP entry (the evaluation uses a closed set of hosts).
  void AddArp(Ipv4Addr ip, MacAddr mac) { arp_[ip] = mac; }

  // Switches this stack to the full TCP lifecycle discipline (see the header
  // comment). Must be set before any connection exists.
  void SetLifecycle(TcpLifecycle cfg) { lifecycle_ = cfg; }
  const TcpLifecycle& lifecycle() const { return lifecycle_; }

  // Feeds one received frame through the stack (charges processing costs).
  Task<> Input(Packet frame);

  // --- UDP ---
  struct UdpDatagram {
    Ipv4Addr src_ip = 0;
    std::uint16_t src_port = 0;
    std::vector<std::uint8_t> payload;
  };
  class UdpSocket {
   public:
    explicit UdpSocket(sim::Executor& exec) : ready(exec) {}
    std::deque<UdpDatagram> queue;
    sim::Event ready;
    Task<UdpDatagram> Recv();
    bool TryRecv(UdpDatagram* out);
  };
  UdpSocket& UdpBind(std::uint16_t port);
  Task<> UdpSendTo(std::uint16_t src_port, Ipv4Addr dst_ip, std::uint16_t dst_port,
                   std::vector<std::uint8_t> payload);

  // --- TCP ---
  class TcpConn {
   public:
    TcpConn(sim::Executor& exec) : readable(exec), closed_ev(exec) {}
    // Reads whatever is buffered (blocking until data or FIN). Empty result
    // means the peer closed.
    Task<std::vector<std::uint8_t>> Read();
    bool established = false;
    bool peer_closed = false;
    std::deque<std::uint8_t> rx;
    sim::Event readable;
    sim::Event closed_ev;
    // Identity.
    Ipv4Addr remote_ip = 0;
    std::uint16_t remote_port = 0;
    std::uint16_t local_port = 0;
    // Sequence state.
    std::uint32_t snd_nxt = 0;
    std::uint32_t rcv_nxt = 0;
    // Retransmission state. The bookkeeping (snd_una, the unacked queue,
    // duplicate-ACK count) is maintained unconditionally — it adds no
    // simulated events. The wheel timer that consumes it (retx_id) is armed
    // on a legacy connection only while recover::Armed(), on a lifecycle
    // one always.
    std::uint32_t snd_una = 0;  // oldest unacknowledged sequence number
    struct SentSeg {
      std::uint32_t seq = 0;
      std::uint32_t seq_len = 0;  // sequence space consumed (payload + SYN/FIN)
      TcpFlags flags;
      std::vector<std::uint8_t> data;
    };
    std::deque<SentSeg> unacked;
    // Set when a bounded TcpConnect gave up on the handshake. Late segments
    // for an abandoned connection are answered with RST: a retransmitted SYN
    // may have built a half-open connection on a server that would otherwise
    // pin an admission worker forever.
    bool abandoned = false;

    // Wheel timers, on either discipline.
    int retx_tries = 0;
    Cycles retx_rto = 0;
    std::uint32_t retx_marker = 0;    // snd_una at last (re)arm, for progress
    TimerWheel::TimerId retx_id = TimerWheel::kNoTimer;
    TimerWheel::TimerId lifecycle_id = TimerWheel::kNoTimer;  // connect/SYN_RCVD/TIME_WAIT

    // --- Lifecycle-mode state (inert for legacy connections) ---
    TcpState state = TcpState::kLegacy;
    CloseCause close_cause = CloseCause::kReset;
    bool fin_sent = false;
    std::uint32_t fin_seq = 0;        // sequence number our FIN occupied
    // Reap protocol: a terminal connection is erased from the table only
    // when no suspended coroutine still references it (`pins`) and the
    // application has released its pointer (`app_released`).
    int pins = 0;
    bool app_released = false;

    // WaitReadable deadline, on either discipline.
    TimerWheel::TimerId wait_id = TimerWheel::kNoTimer;
    bool wait_timed_out = false;
  };
  class Listener {
   public:
    explicit Listener(sim::Executor& exec) : ready(exec) {}
    std::deque<TcpConn*> accepted;
    sim::Event ready;
    Task<TcpConn*> Accept();
  };
  Listener& TcpListen(std::uint16_t port);
  // Connects and waits for the handshake. With `timeout` > 0 the wait is
  // bounded and nullptr is returned (and the half-open connection abandoned)
  // if the SYN-ACK does not arrive in time — open-loop load generators need
  // this so a shed SYN cannot wedge a client forever. The deadline rides the
  // timer wheel, so it rounds up to the wheel's tick (TimerWheel::
  // tick_cycles()). 0 = wait indefinitely, with no deadline timer. A RST
  // also ends the wait with nullptr. In lifecycle mode an abandoned connect
  // is swept from the connection table, so its 4-tuple is immediately
  // reusable. Returns nullptr at once, sending nothing, when every ephemeral
  // port to this destination is in use.
  Task<TcpConn*> TcpConnect(Ipv4Addr dst_ip, std::uint16_t dst_port,
                            Cycles timeout = 0);
  Task<> TcpSend(TcpConn& conn, const std::uint8_t* data, std::size_t len);
  Task<> TcpSend(TcpConn& conn, const std::string& data);
  Task<> TcpClose(TcpConn& conn);
  // Waits until `conn` has buffered data or a peer close, or until `timeout`
  // cycles pass (0 = wait forever). Returns false only on a bare timeout.
  // The deadline rides the timer wheel, so 100k idle keep-alive connections
  // cost no per-wait heap allocation and no un-cancellable executor events.
  Task<bool> WaitReadable(TcpConn& conn, Cycles timeout);
  // The application is done with `conn`'s pointer. A lifecycle connection's
  // table entry is reaped once its state machine also finishes (and vice
  // versa); a legacy connection never finishes, so it stays. Call after
  // TcpClose (or after observing a close/reset).
  void Release(TcpConn* conn);

  // Statistics. Drops are counted by cause; drops() is their sum.
  std::uint64_t frames_in() const { return frames_in_; }
  std::uint64_t frames_out() const { return frames_out_; }
  std::uint64_t drops() const {
    return drops_bad_frame_ + drops_not_for_us_ + drops_no_listener_ +
           drops_unknown_proto_;
  }
  std::uint64_t drops_bad_frame() const { return drops_bad_frame_; }
  std::uint64_t drops_not_for_us() const { return drops_not_for_us_; }
  std::uint64_t drops_no_listener() const { return drops_no_listener_; }
  std::uint64_t drops_unknown_proto() const { return drops_unknown_proto_; }
  std::uint64_t tcp_retransmits() const { return tcp_retransmits_; }
  std::uint64_t tcp_rsts_sent() const { return tcp_rsts_sent_; }
  std::uint64_t tcp_rsts_received() const { return tcp_rsts_received_; }

  // --- Lifecycle-mode accounting (per core: one stack serves one core) ---
  int established_count() const { return established_count_; }
  int half_open_count() const { return half_open_count_; }
  int time_wait_count() const { return time_wait_count_; }
  int peak_established() const { return peak_established_; }
  std::uint64_t closes(CloseCause c) const {
    return closes_[static_cast<std::size_t>(c)];
  }
  std::uint64_t syn_cookies_sent() const { return syn_cookies_sent_; }
  std::uint64_t syn_cookie_accepts() const { return syn_cookie_accepts_; }
  std::uint64_t syn_cookie_rejects() const { return syn_cookie_rejects_; }
  std::uint64_t half_open_evicted() const { return half_open_evicted_; }
  std::uint64_t time_wait_reaped() const { return time_wait_reaped_; }
  const ConnTable<TcpConn>& conn_table() const { return conns_; }
  const TimerWheel& wheel() const { return wheel_; }

 private:
  Task<> Emit(Packet frame, std::size_t payload_len);
  MacAddr ResolveMac(Ipv4Addr ip) const;

  // --- The TCP segment path, shared by both disciplines ---
  // Builds one TCP frame from this stack to `dst_ip` and takes one IP ident.
  Packet TcpFrame(Ipv4Addr dst_ip, const TcpHeader& tcp, const std::uint8_t* data,
                  std::size_t len);
  // The RST that answers `f` (an unknown flow, such as one re-steered onto
  // this stack, or a late segment for an abandoned handshake).
  Packet RstFor(const ParsedFrame& f);
  // A segment for a connection in the table, whatever its discipline.
  Task<> HandleConnSegment(const ParsedFrame& f, const Packet& frame, TcpConn& c);
  // A segment for no known connection: accept, cookie, or RST.
  Task<> HandleNewFlow(const ParsedFrame& f, const Packet& frame);
  Task<> SendTcpSegment(TcpConn& conn, TcpFlags flags, const std::uint8_t* data,
                        std::size_t len);
  // Re-sends the unacked window, each segment verbatim except for a fresh
  // ack field; does not advance snd_nxt or touch the unacked queue.
  Task<> ResendWindow(TcpConn* c);
  // Builds a connection, enters it in the table (and, in SYN_SENT/SYN_RCVD,
  // in the half-open count) and returns its stable pointer.
  TcpConn* NewConn(Ipv4Addr remote_ip, std::uint16_t remote_port,
                   std::uint16_t local_port, TcpState state, std::uint32_t isn);
  // Wraps 65535 -> 49152 and skips 4-tuples still in the table; 0 = the
  // whole range to this destination is in use.
  std::uint16_t AllocEphemeralPort(Ipv4Addr dst_ip, std::uint16_t dst_port);
  void CancelTimer(TimerWheel::TimerId& id);  // cancels if armed; clears `id`
  // The go-back-N retransmit timer, on the wheel: on each expiry with no
  // forward progress, re-send everything outstanding from snd_una and
  // re-arm with a doubled RTO. A full ACK cancels it; the next send re-arms.
  void ArmRetx(TcpConn& c, Cycles rto);
  void RetxFire(TcpConn* c);
  // Single terminal-transition point: cancels timers, drops the unacked
  // queue, wakes readers, and (lifecycle only) counts the cause and reaps if
  // permitted. A legacy connection is never closed: it is left in the table
  // with its peer marked gone.
  void CloseConn(TcpConn& c, CloseCause cause);

  // --- Lifecycle internals ---
  std::uint32_t CookieFor(Ipv4Addr remote_ip, std::uint16_t remote_port,
                          std::uint16_t local_port) const;
  // The one transition into ESTABLISHED (client SYN-ACK, server ACK, cookie
  // ACK): settles the connect/SYN_RCVD timer, counts, traces, and completes
  // a passive open's accept.
  void Establish(TcpConn& c, bool via_cookie);
  void EnterTimeWait(TcpConn& c);
  void LeaveState(TcpConn& c);  // decrements the counter c.state occupies
  // Erases the conn from the table iff terminal, unpinned, and released.
  void MaybeReap(TcpConn& c);
  // RAII pin: keeps a conn out of the reaper while a coroutine that may
  // suspend still holds a reference to it.
  struct PinGuard {
    NetStack* stack;
    TcpConn* conn;
    PinGuard(NetStack* s, TcpConn* c) : stack(s), conn(c) { ++c->pins; }
    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;
    ~PinGuard() {
      if (--conn->pins == 0) {
        stack->MaybeReap(*conn);
      }
    }
  };

  hw::Machine& machine_;
  int core_;
  Ipv4Addr ip_;
  MacAddr mac_;
  StackCosts costs_;
  OutputFn output_;
  std::map<Ipv4Addr, MacAddr> arp_;
  std::map<std::uint16_t, std::unique_ptr<UdpSocket>> udp_;
  std::map<std::uint16_t, std::unique_ptr<Listener>> listeners_;
  // Hashed connection table keyed by ConnKey(remote ip, remote port, local
  // port). Legacy connections are inserted and never erased (their pointers
  // must stay valid for the run); lifecycle connections are reaped when
  // their state machine terminates.
  ConnTable<TcpConn> conns_;
  TimerWheel wheel_;
  TcpLifecycle lifecycle_;
  std::uint16_t next_ephemeral_ = 49152;
  std::uint16_t ip_ident_ = 1;
  std::uint64_t frames_in_ = 0;
  std::uint64_t frames_out_ = 0;
  std::uint64_t drops_bad_frame_ = 0;      // truncated or failed a checksum
  std::uint64_t drops_not_for_us_ = 0;     // valid frame, foreign IP address
  std::uint64_t drops_no_listener_ = 0;    // no bound socket/listener for the port
  std::uint64_t drops_unknown_proto_ = 0;  // not IPv4 UDP/TCP
  std::uint64_t tcp_retransmits_ = 0;
  std::uint64_t tcp_rsts_sent_ = 0;
  std::uint64_t tcp_rsts_received_ = 0;
  // Lifecycle accounting.
  int established_count_ = 0;
  int half_open_count_ = 0;
  int time_wait_count_ = 0;
  int peak_established_ = 0;
  std::uint64_t closes_[kNumCloseCauses] = {};
  std::uint64_t syn_cookies_sent_ = 0;
  std::uint64_t syn_cookie_accepts_ = 0;
  std::uint64_t syn_cookie_rejects_ = 0;
  std::uint64_t half_open_evicted_ = 0;
  std::uint64_t time_wait_reaped_ = 0;
};

}  // namespace mk::net

#endif  // MK_NET_STACK_H_
