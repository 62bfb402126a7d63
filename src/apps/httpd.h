// HTTP/1.0 web server for the section 5.4 workload: serves a static page and
// web-based SELECT queries forwarded to the database process over URPC.
#ifndef MK_APPS_HTTPD_H_
#define MK_APPS_HTTPD_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "apps/db.h"
#include "hw/machine.h"
#include "net/stack.h"
#include "sim/event.h"
#include "sim/task.h"

namespace mk::apps {

using sim::Cycles;
using sim::Task;

struct HttpRequest {
  std::string method;
  std::string path;
  std::string query;  // after '?'
};

// Cap on buffered request bytes before the server gives up on finding a
// request terminator and answers 400: an attacker (or a corrupted length
// field) must not be able to grow a connection's buffer without bound.
inline constexpr std::size_t kMaxRequestBytes = 8192;

struct HttpResponse {
  int status = 200;
  std::string body;
  std::string content_type = "text/html";
};

// Parses the request line of an HTTP/1.0 request; false if malformed.
bool ParseHttpRequest(const std::string& text, HttpRequest* out);

// Renders a response with headers.
std::string RenderHttpResponse(const HttpResponse& resp);

// HTTP/1.1 variant: advertises keep-alive (or an explicit close on the
// connection's last response). The legacy HTTP/1.0 renderer above is
// untouched — golden transcripts depend on its exact bytes.
std::string RenderHttpResponse11(const HttpResponse& resp, bool keep_alive);

// Incremental request framer for keep-alive connections: bytes arrive in
// arbitrary segment-sized chunks, possibly carrying several pipelined
// requests back to back, possibly splitting one request (or its "\r\n\r\n"
// terminator) across chunk boundaries. The framer's contract is that the
// sequence of popped requests depends only on the concatenated byte stream,
// never on where the chunk boundaries fell (the fuzz test asserts this).
// A stream that exceeds kMaxRequestBytes without completing a request sets
// overflowed() and the connection is answered 400 and closed.
class HttpRequestFramer {
 public:
  void Append(const std::uint8_t* data, std::size_t len);
  void Append(const std::string& chunk) {
    Append(reinterpret_cast<const std::uint8_t*>(chunk.data()), chunk.size());
  }
  // True if a complete request ("\r\n\r\n"-terminated) is buffered.
  bool HasRequest() const { return next_end_ != std::string::npos; }
  // Pops the first complete request (terminator included); false if none.
  bool PopRequest(std::string* out);
  bool overflowed() const { return overflowed_; }
  std::size_t buffered() const { return buf_.size(); }

 private:
  void Rescan(std::size_t from);
  std::string buf_;
  std::size_t next_end_ = std::string::npos;  // offset one past "\r\n\r\n"
  std::size_t scan_from_ = 0;                 // resume point for the terminator scan
  bool overflowed_ = false;
};

// The static page: paper serves a 4.1 KB page.
const std::string& StaticIndexPage();

class HttpServer {
 public:
  // `db_query` runs a SQL string on the database service (usually an URPC
  // round trip to the DB core) and returns the rendered rows; empty handler
  // disables /query.
  using DbQueryFn = std::function<Task<std::string>(std::string sql)>;

  // `db_exec` runs a write (client write id + SQL) on the data tier; empty
  // handler disables /buy. The wid rides the URL so retries at any layer
  // stay idempotent end to end.
  using DbExecFn = std::function<Task<std::string>(std::uint64_t wid, std::string sql)>;

  // `request_cost` is the per-request application work (parsing, routing,
  // buffer management, connection bookkeeping) charged on the server core;
  // the default is calibrated against the paper's measured service rate.
  HttpServer(hw::Machine& machine, net::NetStack& stack, std::uint16_t port,
             DbQueryFn db_query = nullptr, Cycles request_cost = 60000);

  // Explicit overload policy. The legacy discipline (all fields zero) spawns
  // one unbounded handler per accepted connection — under overload every
  // request gets slower until clients time out, a collapse. With `workers` >
  // 0 accepted connections enter a bounded admission queue drained by that
  // many handler tasks; a connection arriving to a full queue is answered 503
  // immediately (shed-by-queue-full), and one that waited longer than
  // `queue_deadline` is answered 503 at dequeue instead of being served
  // late (shed-by-deadline). Shedding keeps served-request latency bounded
  // while a degraded shard carries more than its share of load.
  struct Admission {
    int workers = 0;            // 0 = legacy spawn-per-connection
    int max_pending = 0;        // admission-queue cap; 0 = unbounded
    Cycles queue_deadline = 0;  // max queue wait before shedding; 0 = never
  };
  void SetAdmission(Admission a) { admission_ = a; }

  // HTTP/1.1 keep-alive serving discipline. Off (the default) preserves the
  // legacy one-request-per-connection HTTP/1.0 flow byte for byte. On, a
  // connection serves up to `max_requests` requests (0 = unlimited), closes
  // after `idle_timeout` cycles with no request in flight, allows at most
  // `max_pipeline` already-complete pipelined requests queued at once
  // (excess closes the connection after serving that many), and gives each
  // request `header_deadline` cycles from its first byte to its terminator —
  // the slowloris defense: a trickler's total budget, not a per-byte one.
  // Deadline expiry answers 408 and counts as a shed (kRecoverShed cause 2).
  struct KeepAlive {
    bool enabled = false;
    int max_requests = 0;
    Cycles idle_timeout = 0;    // 0 = never idle out
    int max_pipeline = 8;
    Cycles header_deadline = 0; // 0 = no progress deadline
  };
  void SetKeepAlive(KeepAlive k) { keep_ = k; }

  // Enables the /buy?wid=N&sql=... write route (the TPC-W buy leg).
  void SetDbExec(DbExecFn fn) { db_exec_ = std::move(fn); }

  // Accept loop: serves connections until the stack shuts down. Spawn this.
  Task<> Serve();

  // Handles one already-parsed request (also used by the loopback bench).
  Task<HttpResponse> Handle(const HttpRequest& req);

  std::uint64_t requests_served() const { return requests_served_; }
  std::uint64_t shed_queue_full() const { return shed_queue_full_; }
  std::uint64_t shed_deadline() const { return shed_deadline_; }
  std::uint64_t shed_progress() const { return shed_progress_; }
  std::uint64_t idle_closes() const { return idle_closes_; }
  std::uint64_t budget_closes() const { return budget_closes_; }
  std::uint64_t pipeline_closes() const { return pipeline_closes_; }
  std::uint64_t bad_requests() const { return bad_requests_; }

 private:
  Task<> ServeConnection(net::NetStack::TcpConn* conn);
  Task<> ServeConnectionKeepAlive(net::NetStack::TcpConn* conn);
  // Answers 503 and closes; the cheap path that keeps shedding graceful.
  Task<> ShedConnection(net::NetStack::TcpConn* conn);
  // Admission-queue drainer; `workers` of these run when the policy is on.
  Task<> Worker();

  hw::Machine& machine_;
  net::NetStack& stack_;
  std::uint16_t port_;
  DbQueryFn db_query_;
  DbExecFn db_exec_;
  Cycles request_cost_;
  Admission admission_;
  KeepAlive keep_;
  std::deque<std::pair<net::NetStack::TcpConn*, Cycles>> pending_;
  sim::Event pending_ready_;
  std::uint64_t requests_served_ = 0;
  std::uint64_t shed_queue_full_ = 0;
  std::uint64_t shed_deadline_ = 0;
  std::uint64_t shed_progress_ = 0;    // slowloris: progress deadline → 408
  std::uint64_t idle_closes_ = 0;      // keep-alive idle timeout fired
  std::uint64_t budget_closes_ = 0;    // per-connection request budget hit
  std::uint64_t pipeline_closes_ = 0;  // pipeline depth exceeded
  std::uint64_t bad_requests_ = 0;     // malformed or oversized → 400
};

// Builds the TPC-W-like browsing database (items and authors tables).
void PopulateTpcw(Database* db, int items, std::uint64_t seed = 7);

// A TPC-W-like SELECT for item detail browsing.
std::string TpcwQuery(int item_id);

}  // namespace mk::apps

#endif  // MK_APPS_HTTPD_H_
