#include "net/stack.h"

#include <algorithm>
#include <cstring>

#include "trace/trace.h"

namespace mk::net {
namespace {

// Serial-number comparison (RFC 1982 style) for 32-bit sequence space.
bool SeqLt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool SeqLe(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

// The header of a segment `c` sends at `seq`, acking everything received.
TcpHeader ConnHeader(const NetStack::TcpConn& c, std::uint32_t seq, TcpFlags flags) {
  return {.src_port = c.local_port,
          .dst_port = c.remote_port,
          .seq = seq,
          .ack = c.rcv_nxt,
          .flags = flags};
}

}  // namespace

Task<NetStack::UdpDatagram> NetStack::UdpSocket::Recv() {
  while (queue.empty()) {
    co_await ready.Wait();
  }
  UdpDatagram d = std::move(queue.front());
  queue.pop_front();
  co_return d;
}

bool NetStack::UdpSocket::TryRecv(UdpDatagram* out) {
  if (queue.empty()) {
    return false;
  }
  *out = std::move(queue.front());
  queue.pop_front();
  return true;
}

Task<std::vector<std::uint8_t>> NetStack::TcpConn::Read() {
  while (rx.empty() && !peer_closed) {
    co_await readable.Wait();
  }
  std::vector<std::uint8_t> out(rx.begin(), rx.end());
  rx.clear();
  co_return out;
}

Task<NetStack::TcpConn*> NetStack::Listener::Accept() {
  while (accepted.empty()) {
    co_await ready.Wait();
  }
  TcpConn* conn = accepted.front();
  accepted.pop_front();
  co_return conn;
}

NetStack::NetStack(hw::Machine& machine, int core, Ipv4Addr ip, MacAddr mac,
                   StackCosts costs)
    : machine_(machine),
      core_(core),
      ip_(ip),
      mac_(mac),
      costs_(costs),
      wheel_(machine.exec()) {}

MacAddr NetStack::ResolveMac(Ipv4Addr ip) const {
  auto it = arp_.find(ip);
  if (it != arp_.end()) {
    return it->second;
  }
  return MacAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
}

Task<> NetStack::Emit(Packet frame, std::size_t payload_len) {
  ++frames_out_;
  co_await machine_.Compute(
      core_, costs_.per_packet_out +
                 static_cast<Cycles>(static_cast<double>(payload_len) *
                                     costs_.per_byte_checksum));
  if (output_) {
    co_await output_(std::move(frame));
  }
}

NetStack::UdpSocket& NetStack::UdpBind(std::uint16_t port) {
  auto [it, inserted] = udp_.try_emplace(port, nullptr);
  if (inserted) {
    it->second = std::make_unique<UdpSocket>(machine_.exec());
  }
  return *it->second;
}

Task<> NetStack::UdpSendTo(std::uint16_t src_port, Ipv4Addr dst_ip, std::uint16_t dst_port,
                           std::vector<std::uint8_t> payload) {
  EthHeader eth;
  eth.src = mac_;
  eth.dst = ResolveMac(dst_ip);
  IpHeader ip;
  ip.src = ip_;
  ip.dst = dst_ip;
  ip.ident = ip_ident_++;
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  std::size_t len = payload.size();
  Packet frame = BuildUdpFrame(eth, ip, udp, payload.data(), payload.size());
  co_await Emit(std::move(frame), len);
}

Task<> NetStack::Input(Packet frame) {
  ++frames_in_;
  ParseInfo info;
  auto parsed = ParseFrame(frame, &info);
  // Checksum cost is charged on the L4 payload bytes the parser actually
  // summed — the same basis whether the frame parsed or not (a truncated
  // frame sums nothing; a corrupt one sums its payload before rejecting it).
  co_await machine_.Compute(
      core_, costs_.per_packet_in +
                 static_cast<Cycles>(static_cast<double>(info.payload_len) *
                                     costs_.per_byte_checksum));
  if (!parsed) {
    if (info.error == ParseError::kUnknownProto) {
      ++drops_unknown_proto_;
    } else {
      ++drops_bad_frame_;
    }
    co_return;
  }
  if (parsed->ip.dst != ip_ && parsed->ip.dst != 0xffffffff) {
    ++drops_not_for_us_;
    co_return;
  }
  if (parsed->udp) {
    auto it = udp_.find(parsed->udp->dst_port);
    if (it == udp_.end()) {
      ++drops_no_listener_;
      co_return;
    }
    UdpDatagram d;
    d.src_ip = parsed->ip.src;
    d.src_port = parsed->udp->src_port;
    d.payload.assign(frame.begin() + static_cast<std::ptrdiff_t>(parsed->payload_offset),
                     frame.begin() + static_cast<std::ptrdiff_t>(parsed->payload_offset +
                                                                 parsed->payload_len));
    it->second->queue.push_back(std::move(d));
    it->second->ready.Signal();
    co_return;
  }
  if (parsed->tcp) {
    // Dispatched here rather than in a helper coroutine, which would cost
    // every segment one more frame allocation.
    const TcpHeader& tcp = *parsed->tcp;
    TcpConn* c = conns_.Find(ConnKey(parsed->ip.src, tcp.src_port, tcp.dst_port));
    if (c != nullptr) {
      co_await HandleConnSegment(*parsed, frame, *c);
    } else {
      co_await HandleNewFlow(*parsed, frame);
    }
    co_return;
  }
  ++drops_unknown_proto_;
}

Packet NetStack::TcpFrame(Ipv4Addr dst_ip, const TcpHeader& tcp, const std::uint8_t* data,
                          std::size_t len) {
  EthHeader eth;
  eth.src = mac_;
  eth.dst = ResolveMac(dst_ip);
  IpHeader ip;
  ip.src = ip_;
  ip.dst = dst_ip;
  ip.ident = ip_ident_++;
  return BuildTcpFrame(eth, ip, tcp, data, len);
}

Packet NetStack::RstFor(const ParsedFrame& f) {
  const TcpHeader& tcp = *f.tcp;
  ++tcp_rsts_sent_;
  return TcpFrame(f.ip.src,
                  {.src_port = tcp.dst_port,
                   .dst_port = tcp.src_port,
                   .seq = tcp.flags.ack ? tcp.ack : 0,
                   .ack = tcp.seq + static_cast<std::uint32_t>(f.payload_len) +
                          (tcp.flags.syn ? 1 : 0) + (tcp.flags.fin ? 1 : 0),
                   .flags = {.ack = true, .rst = true}},
                  nullptr, 0);
}

Task<> NetStack::SendTcpSegment(TcpConn& conn, TcpFlags flags, const std::uint8_t* data,
                                std::size_t len) {
  const std::uint32_t seq = conn.snd_nxt;
  const auto seq_len = static_cast<std::uint32_t>(len) + (flags.syn ? 1 : 0) +
                       (flags.fin ? 1 : 0);
  conn.snd_nxt += seq_len;
  if (seq_len > 0) {
    // Segments that occupy sequence space are kept until acknowledged (pure
    // ACKs are not retransmittable), and the wheel's go-back-N timer covers
    // them. A half-open SYN_RCVD connection never retransmits its SYN-ACK
    // (the client's SYN retransmit provokes a re-send instead), so a SYN
    // flood cannot make the server arm 100k timers. A legacy connection
    // arms only while recovery is armed.
    conn.unacked.push_back(
        {seq, seq_len, flags, std::vector<std::uint8_t>(data, data + len)});
    if (conn.retx_id == TimerWheel::kNoTimer && conn.state != TcpState::kSynRcvd &&
        (conn.state != TcpState::kLegacy || recover::Armed())) {
      ArmRetx(conn, recover::Config().tcp_rto);
    }
  }
  Packet frame = TcpFrame(conn.remote_ip, ConnHeader(conn, seq, flags), data, len);
  co_await Emit(std::move(frame), len);
}

Task<> NetStack::ResendWindow(TcpConn* c) {
  PinGuard pin(this, c);
  // Snapshot: ACKs arriving during the resend's suspensions may pop from the
  // live queue under us.
  std::vector<TcpConn::SentSeg> window(c->unacked.begin(), c->unacked.end());
  for (const TcpConn::SentSeg& seg : window) {
    if (c->state == TcpState::kClosed) {
      break;
    }
    Packet frame = TcpFrame(c->remote_ip, ConnHeader(*c, seg.seq, seg.flags),
                            seg.data.data(), seg.data.size());
    co_await Emit(std::move(frame), seg.data.size());
  }
}

NetStack::TcpConn* NetStack::NewConn(Ipv4Addr remote_ip, std::uint16_t remote_port,
                                     std::uint16_t local_port, TcpState state,
                                     std::uint32_t isn) {
  auto owned = std::make_unique<TcpConn>(machine_.exec());
  owned->remote_ip = remote_ip;
  owned->remote_port = remote_port;
  owned->local_port = local_port;
  owned->snd_nxt = isn;
  owned->snd_una = isn;
  owned->state = state;
  if (state == TcpState::kSynSent || state == TcpState::kSynRcvd) {
    ++half_open_count_;
  }
  return conns_.Insert(ConnKey(remote_ip, remote_port, local_port), std::move(owned));
}

std::uint16_t NetStack::AllocEphemeralPort(Ipv4Addr dst_ip, std::uint16_t dst_port) {
  // Skipping tuples in the table steps over lifecycle connections parked in
  // TIME_WAIT and over every legacy connection, which is never erased.
  for (int tries = 0; tries < 16384; ++tries) {
    std::uint16_t port = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ == 65535 ? static_cast<std::uint16_t>(49152)
                                 : static_cast<std::uint16_t>(next_ephemeral_ + 1);
    if (conns_.Find(ConnKey(dst_ip, dst_port, port)) == nullptr) {
      return port;
    }
  }
  return 0;
}

void NetStack::CancelTimer(TimerWheel::TimerId& id) {
  if (id != TimerWheel::kNoTimer) {
    wheel_.Cancel(id);
    id = TimerWheel::kNoTimer;
  }
}

// --- Lifecycle internals ---

std::uint32_t NetStack::CookieFor(Ipv4Addr remote_ip, std::uint16_t remote_port,
                                  std::uint16_t local_port) const {
  // splitmix64 over the flow key xor a fixed secret; deterministic across
  // runs, unforgeable enough for a simulated attacker that picks random ACKs.
  std::uint64_t x = ConnKey(remote_ip, remote_port, local_port) ^ 0x6d6b636f6f6b6965ull;
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x);
}

void NetStack::LeaveState(TcpConn& c) {
  switch (c.state) {
    case TcpState::kSynSent:
    case TcpState::kSynRcvd:
      --half_open_count_;
      break;
    case TcpState::kEstablished:
      --established_count_;
      break;
    case TcpState::kTimeWait:
      --time_wait_count_;
      break;
    default:
      break;
  }
}

void NetStack::Establish(TcpConn& c, bool via_cookie) {
  const bool passive = c.state == TcpState::kSynRcvd;
  CancelTimer(c.lifecycle_id);  // connect deadline or SYN_RCVD expiry
  LeaveState(c);
  c.state = TcpState::kEstablished;
  c.established = true;
  peak_established_ = std::max(peak_established_, ++established_count_);
  trace::Emit<trace::Category::kConn>(
      trace::EventId::kConnEstablished, machine_.exec().now(), core_,
      ConnKey(c.remote_ip, c.remote_port, c.local_port), via_cookie ? 1 : 0);
  if (passive) {
    auto lit = listeners_.find(c.local_port);
    if (lit != listeners_.end()) {
      lit->second->accepted.push_back(&c);
      lit->second->ready.Signal();
    }
  }
}

void NetStack::CloseConn(TcpConn& c, CloseCause cause) {
  if (c.state == TcpState::kClosed) {
    return;
  }
  CancelTimer(c.retx_id);
  CancelTimer(c.lifecycle_id);
  c.unacked.clear();
  c.peer_closed = true;  // readers observe end-of-stream
  // A legacy connection is never closed: it only learns that its peer is
  // gone, and stays in the table.
  if (c.state != TcpState::kLegacy) {
    LeaveState(c);
    c.state = TcpState::kClosed;
    c.close_cause = cause;
    ++closes_[static_cast<std::size_t>(cause)];
    trace::Emit<trace::Category::kConn>(
        trace::EventId::kConnClose, machine_.exec().now(), core_,
        static_cast<std::uint64_t>(cause),
        ConnKey(c.remote_ip, c.remote_port, c.local_port));
  }
  c.readable.Signal();
  c.closed_ev.Signal();
  MaybeReap(c);
}

void NetStack::EnterTimeWait(TcpConn& c) {
  c.state = TcpState::kTimeWait;
  ++time_wait_count_;
  trace::Emit<trace::Category::kConn>(
      trace::EventId::kConnTimeWait, machine_.exec().now(), core_,
      ConnKey(c.remote_ip, c.remote_port, c.local_port));
  TcpConn* cp = &c;
  c.lifecycle_id = wheel_.Schedule(lifecycle_.time_wait, [this, cp] {
    cp->lifecycle_id = TimerWheel::kNoTimer;
    ++time_wait_reaped_;
    CloseConn(*cp, CloseCause::kActiveFin);
  });
}

void NetStack::MaybeReap(TcpConn& c) {
  if (c.state != TcpState::kClosed || !c.app_released || c.pins != 0) {
    return;
  }
  // Every timer referencing the conn was cancelled on the way to kClosed and
  // no suspended coroutine pins it, so destroying it here is safe.
  conns_.Erase(ConnKey(c.remote_ip, c.remote_port, c.local_port));
}

void NetStack::ArmRetx(TcpConn& c, Cycles rto) {
  c.retx_rto = rto;
  c.retx_marker = c.snd_una;
  TcpConn* cp = &c;
  c.retx_id = wheel_.Schedule(rto, [this, cp] { RetxFire(cp); });
}

void NetStack::RetxFire(TcpConn* c) {
  c->retx_id = TimerWheel::kNoTimer;
  const bool legacy = c->state == TcpState::kLegacy;
  if (c->state == TcpState::kClosed || c->unacked.empty() ||
      (legacy && !recover::Armed())) {
    c->retx_tries = 0;
    return;
  }
  if (c->retx_marker != c->snd_una) {
    // Forward progress since the timer was armed: restart with a fresh RTO.
    c->retx_tries = 0;
    ArmRetx(*c, recover::Config().tcp_rto);
    return;
  }
  if (++c->retx_tries > recover::Config().tcp_max_retx) {
    // The peer is presumed dead. A legacy connection is never closed: it
    // only stops re-arming, so the executor can drain.
    if (legacy) {
      c->retx_tries = 0;
    } else {
      CloseConn(*c, CloseCause::kRetxAbort);
    }
    return;
  }
  ++tcp_retransmits_;
  trace::Emit<trace::Category::kFault>(trace::EventId::kFaultTcpRetransmit,
                                       machine_.exec().now(), core_, c->snd_una,
                                       static_cast<std::uint64_t>(c->retx_tries));
  ArmRetx(*c, c->retx_rto * 2);  // keeps retx_tries: backoff until progress
  machine_.exec().Spawn(ResendWindow(c));
}

void NetStack::Release(TcpConn* conn) {
  if (conn == nullptr) {
    return;
  }
  conn->app_released = true;
  MaybeReap(*conn);
}

Task<bool> NetStack::WaitReadable(TcpConn& conn, Cycles timeout) {
  conn.wait_timed_out = false;
  if (conn.rx.empty() && !conn.peer_closed) {
    if (timeout > 0) {
      TcpConn* cp = &conn;
      conn.wait_id = wheel_.Schedule(timeout, [cp] {
        cp->wait_id = TimerWheel::kNoTimer;
        cp->wait_timed_out = true;
        cp->readable.Signal();
      });
    }
    while (conn.rx.empty() && !conn.peer_closed && !conn.wait_timed_out) {
      co_await conn.readable.Wait();
    }
    CancelTimer(conn.wait_id);
  }
  co_return !conn.rx.empty() || conn.peer_closed || !conn.wait_timed_out;
}

NetStack::Listener& NetStack::TcpListen(std::uint16_t port) {
  auto [it, inserted] = listeners_.try_emplace(port, nullptr);
  if (inserted) {
    it->second = std::make_unique<Listener>(machine_.exec());
  }
  return *it->second;
}

Task<NetStack::TcpConn*> NetStack::TcpConnect(Ipv4Addr dst_ip, std::uint16_t dst_port,
                                              Cycles timeout) {
  const std::uint16_t port = AllocEphemeralPort(dst_ip, dst_port);
  if (port == 0) {
    co_return nullptr;  // ephemeral range to this destination exhausted
  }
  constexpr std::uint32_t kIsn = 1000;  // deterministic ISN
  TcpConn* c = NewConn(dst_ip, dst_port, port,
                       lifecycle_.enabled ? TcpState::kSynSent : TcpState::kLegacy, kIsn);
  PinGuard pin(this, c);
  if (timeout > 0) {
    // The SYN-ACK and a RST cancel this deadline, so it fires only on a
    // handshake still pending.
    c->lifecycle_id = wheel_.Schedule(timeout, [this, c] {
      c->lifecycle_id = TimerWheel::kNoTimer;
      c->abandoned = true;
      trace::Emit<trace::Category::kConn>(
          trace::EventId::kConnTimeout, machine_.exec().now(), core_, 0,
          ConnKey(c->remote_ip, c->remote_port, c->local_port));
      CloseConn(*c, CloseCause::kConnectTimeout);
    });
  }
  co_await SendTcpSegment(*c, TcpFlags{.syn = true}, nullptr, 0);
  while (!c->established && !c->peer_closed) {
    co_await c->readable.Wait();
  }
  if (!c->established || c->state == TcpState::kClosed) {
    // Timed out or reset before completion. Late segments for the handshake
    // draw a RST. A lifecycle connection is closed, and the pin guard sweeps
    // it from the table on return, so its 4-tuple is reusable; a legacy one
    // stays, and AllocEphemeralPort skips its tuple.
    c->abandoned = true;
    c->app_released = true;
    co_return nullptr;
  }
  co_return c;
}

Task<> NetStack::HandleNewFlow(const ParsedFrame& f, const Packet& frame) {
  const TcpHeader& tcp = *f.tcp;
  const std::uint64_t key = ConnKey(f.ip.src, tcp.src_port, tcp.dst_port);
  auto lit = listeners_.find(tcp.dst_port);
  Listener* listener = lit == listeners_.end() ? nullptr : lit->second.get();
  const bool cookies = lifecycle_.enabled && lifecycle_.max_half_open > 0;
  if (listener != nullptr && tcp.flags.syn && !tcp.flags.ack && !tcp.flags.rst) {
    constexpr std::uint32_t kIsn = 5000;  // deterministic ISN
    if (!lifecycle_.enabled) {
      // Legacy 2-way accept: established once the SYN-ACK is out, trusting
      // the client's ACK to arrive (a lossless link).
      TcpConn* c = NewConn(f.ip.src, tcp.src_port, tcp.dst_port, TcpState::kLegacy, kIsn);
      c->rcv_nxt = tcp.seq + 1;
      co_await SendTcpSegment(*c, TcpFlags{.syn = true, .ack = true}, nullptr, 0);
      c->established = true;
      listener->accepted.push_back(c);
      listener->ready.Signal();
      co_return;
    }
    if (cookies && half_open_count_ >= lifecycle_.max_half_open) {
      // Half-open table full: answer statelessly with a SYN-cookie ISN.
      // A legitimate client's ACK reconstructs the connection below; a
      // flood source that never ACKs costs us nothing.
      std::uint32_t cookie = CookieFor(f.ip.src, tcp.src_port, tcp.dst_port);
      ++syn_cookies_sent_;
      trace::Emit<trace::Category::kConn>(trace::EventId::kConnCookieSent,
                                          machine_.exec().now(), core_, cookie, key);
      Packet synack = TcpFrame(f.ip.src,
                               {.src_port = tcp.dst_port,
                                .dst_port = tcp.src_port,
                                .seq = cookie,
                                .ack = tcp.seq + 1,
                                .flags = {.syn = true, .ack = true}},
                               nullptr, 0);
      co_await Emit(std::move(synack), 0);
      co_return;
    }
    // True 3-way handshake: park the connection half-open; accept
    // completes only on the client's ACK.
    TcpConn* c = NewConn(f.ip.src, tcp.src_port, tcp.dst_port, TcpState::kSynRcvd, kIsn);
    c->rcv_nxt = tcp.seq + 1;
    trace::Emit<trace::Category::kConn>(trace::EventId::kConnSynRcvd,
                                        machine_.exec().now(), core_, key);
    c->lifecycle_id = wheel_.Schedule(lifecycle_.syn_rcvd_timeout, [this, c] {
      c->lifecycle_id = TimerWheel::kNoTimer;
      if (c->state != TcpState::kSynRcvd) {
        return;
      }
      ++half_open_evicted_;
      trace::Emit<trace::Category::kConn>(
          trace::EventId::kConnEvict, machine_.exec().now(), core_, 0,
          ConnKey(c->remote_ip, c->remote_port, c->local_port));
      c->app_released = true;  // never reached the application
      CloseConn(*c, CloseCause::kHalfOpenExpiry);
    });
    PinGuard pin(this, c);
    co_await SendTcpSegment(*c, TcpFlags{.syn = true, .ack = true}, nullptr, 0);
    co_return;
  }
  if (listener != nullptr && cookies && tcp.flags.ack && !tcp.flags.syn &&
      !tcp.flags.rst && !tcp.flags.fin) {
    std::uint32_t cookie = CookieFor(f.ip.src, tcp.src_port, tcp.dst_port);
    if (tcp.ack == cookie + 1) {
      // Stateless handshake completion: the ACK proves the peer saw our
      // cookie SYN-ACK; rebuild the half-open connection it encodes and
      // establish it.
      TcpConn* c =
          NewConn(f.ip.src, tcp.src_port, tcp.dst_port, TcpState::kSynRcvd, tcp.ack);
      c->rcv_nxt = tcp.seq;
      ++syn_cookie_accepts_;
      trace::Emit<trace::Category::kConn>(trace::EventId::kConnCookieAccept,
                                          machine_.exec().now(), core_, cookie, key);
      Establish(*c, /*via_cookie=*/true);
      // The ACK may already carry request bytes; run it through the
      // connection's handler so they are buffered and acked.
      co_await HandleConnSegment(f, frame, *c);
      co_return;
    }
    ++syn_cookie_rejects_;
  }
  // Unknown flow: reset it. A mid-flow segment for a connection this stack
  // never saw (typically an orphaned flow re-steered here after its shard
  // died) makes the client retry with a fresh SYN against this stack's
  // listener; a late segment for an erased lifecycle connection learns the
  // flow is gone.
  if (!tcp.flags.rst) {
    co_await Emit(RstFor(f), 0);
  }
  ++drops_no_listener_;
}

Task<> NetStack::HandleConnSegment(const ParsedFrame& f, const Packet& frame,
                                   TcpConn& c) {
  PinGuard pin(this, &c);
  const TcpHeader& tcp = *f.tcp;
  if (tcp.flags.rst) {
    ++tcp_rsts_received_;
    CloseConn(c, CloseCause::kReset);
    co_return;
  }
  if (c.state == TcpState::kClosed) {
    co_return;  // late segment for a connection awaiting reap
  }
  if (c.abandoned) {
    // A late segment — typically the SYN-ACK a retransmitted SYN provoked —
    // for a legacy handshake this side already gave up on (an abandoned
    // lifecycle connect is kClosed). Reset it: the peer (often a survivor
    // that adopted the flow) holds a half-open connection no one will ever
    // write to, and without the RST it would pin one of the server's
    // admission workers until the end of the run.
    co_await Emit(RstFor(f), 0);
    co_return;
  }
  // Retransmitted SYN for a half-open connection: the SYN-ACK was lost.
  // Re-send it verbatim (half-open connections arm no retransmit timer).
  if (c.state == TcpState::kSynRcvd && tcp.flags.syn && !tcp.flags.ack) {
    Packet synack = TcpFrame(
        c.remote_ip, ConnHeader(c, c.snd_una, {.syn = true, .ack = true}), nullptr, 0);
    co_await Emit(std::move(synack), 0);
    co_return;
  }
  // Lifecycle client: the SYN-ACK completes our active open.
  if (c.state == TcpState::kSynSent) {
    if (tcp.flags.syn && tcp.flags.ack && tcp.ack == c.snd_nxt) {
      c.rcv_nxt = tcp.seq + 1;
      c.snd_una = tcp.ack;
      c.unacked.clear();
      CancelTimer(c.retx_id);
      Establish(c, /*via_cookie=*/false);
      co_await SendTcpSegment(c, TcpFlags{.ack = true}, nullptr, 0);
      c.readable.Signal();
    }
    co_return;
  }
  // ACK processing: advance snd_una, retire acknowledged segments, settle
  // the retransmit timer and any in-flight FIN of ours. Pure bookkeeping —
  // a legacy connection schedules no events here.
  if (tcp.flags.ack) {
    if (SeqLt(c.snd_una, tcp.ack) && SeqLe(tcp.ack, c.snd_nxt)) {
      c.snd_una = tcp.ack;
      while (!c.unacked.empty() &&
             SeqLe(c.unacked.front().seq + c.unacked.front().seq_len, c.snd_una)) {
        c.unacked.pop_front();
      }
      if (c.unacked.empty() && c.retx_id != TimerWheel::kNoTimer) {
        CancelTimer(c.retx_id);
        c.retx_tries = 0;
      }
    }
    if (c.state == TcpState::kSynRcvd && c.snd_una == c.snd_nxt) {
      // The client's ACK covers our SYN-ACK: promote the half-open
      // connection and complete the accept.
      Establish(c, /*via_cookie=*/false);
    }
    if (c.fin_sent && SeqLt(c.fin_seq, c.snd_una)) {
      // Our FIN is acknowledged.
      switch (c.state) {
        case TcpState::kFinWait1:
          c.state = TcpState::kFinWait2;
          break;
        case TcpState::kClosing:
          EnterTimeWait(c);
          break;
        case TcpState::kLastAck:
          CloseConn(c, CloseCause::kPassiveFin);
          co_return;
        default:
          break;
      }
    }
  }
  if (c.state == TcpState::kLegacy && tcp.flags.syn && tcp.flags.ack &&
      !c.established) {
    // Legacy client: our SYN was answered (and retired above), which settles
    // the connect deadline.
    CancelTimer(c.lifecycle_id);
    c.rcv_nxt = tcp.seq + 1;
    c.established = true;
    co_await SendTcpSegment(c, TcpFlags{.ack = true}, nullptr, 0);
    c.readable.Signal();
    co_return;
  }
  bool advanced = false;
  if (f.payload_len > 0 && tcp.seq == c.rcv_nxt) {
    c.rx.insert(c.rx.end(),
                frame.begin() + static_cast<std::ptrdiff_t>(f.payload_offset),
                frame.begin() + static_cast<std::ptrdiff_t>(f.payload_offset +
                                                            f.payload_len));
    c.rcv_nxt += static_cast<std::uint32_t>(f.payload_len);
    advanced = true;
  }
  // In-order FIN (rcv_nxt was already advanced past any payload above).
  if (tcp.flags.fin &&
      tcp.seq + static_cast<std::uint32_t>(f.payload_len) == c.rcv_nxt) {
    c.rcv_nxt += 1;
    c.peer_closed = true;
    advanced = true;
    c.closed_ev.Signal();
    switch (c.state) {
      case TcpState::kEstablished:
        LeaveState(c);
        c.state = TcpState::kCloseWait;
        break;
      case TcpState::kFinWait1:
        c.state = TcpState::kClosing;  // simultaneous close
        break;
      case TcpState::kFinWait2:
        EnterTimeWait(c);
        break;
      default:
        break;
    }
  }
  if (advanced) {
    co_await SendTcpSegment(c, TcpFlags{.ack = true}, nullptr, 0);
    c.readable.Signal();
    co_return;
  }
  // Out-of-order or duplicate sequence-consuming segment (a retransmission,
  // data past a loss-created hole, or a peer's retransmitted FIN while we sit
  // in TIME_WAIT): re-announce rcv_nxt so the peer's go-back-N converges.
  if (f.payload_len > 0 || tcp.flags.syn || tcp.flags.fin) {
    co_await SendTcpSegment(c, TcpFlags{.ack = true}, nullptr, 0);
  }
}

Task<> NetStack::TcpSend(TcpConn& conn, const std::uint8_t* data, std::size_t len) {
  constexpr std::size_t kMss = kMtu - kIpHeaderBytes - kTcpHeaderBytes;
  std::size_t off = 0;
  while (off < len) {
    std::size_t seg = std::min(kMss, len - off);
    co_await SendTcpSegment(conn, TcpFlags{.ack = true}, data + off, seg);
    off += seg;
  }
}

Task<> NetStack::TcpSend(TcpConn& conn, const std::string& data) {
  co_await TcpSend(conn, reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
}

Task<> NetStack::TcpClose(TcpConn& conn) {
  // Legacy: a lone FIN. Lifecycle: the full FIN/ACK close handshake; active
  // close walks FIN_WAIT_1 → FIN_WAIT_2 → TIME_WAIT, closing after the
  // peer's FIN walks CLOSE_WAIT → LAST_ACK → CLOSED.
  switch (conn.state) {
    case TcpState::kLegacy:
      break;
    case TcpState::kEstablished:
      LeaveState(conn);
      conn.state = TcpState::kFinWait1;
      break;
    case TcpState::kCloseWait:
      conn.state = TcpState::kLastAck;
      break;
    default:
      co_return;  // half-open, already closing, or closed: nothing to send
  }
  conn.fin_sent = true;
  conn.fin_seq = conn.snd_nxt;
  co_await SendTcpSegment(conn, TcpFlags{.ack = true, .fin = true}, nullptr, 0);
}

}  // namespace mk::net
