#include "apps/httpd.h"

#include <charconv>
#include <sstream>
#include <string_view>

#include "sim/random.h"
#include "trace/trace.h"

namespace mk::apps {
namespace {

// A /buy write id: all digits and within 64 bits. Out of line on purpose:
// inlined, the parse grew Handle's coroutine frame and code, and keep-alive
// serving, which never takes the /buy branch, ran ~5% slower.
bool ParseWriteId(std::string_view digits, std::uint64_t* out) {
  const char* end = digits.data() + digits.size();
  auto [ptr, ec] = std::from_chars(digits.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

bool ParseHttpRequest(const std::string& text, HttpRequest* out) {
  std::size_t line_end = text.find("\r\n");
  if (line_end == std::string::npos) {
    line_end = text.find('\n');
  }
  std::string line = text.substr(0, line_end);
  if (line.size() > kMaxRequestBytes) {
    return false;  // request line alone exceeds the buffer cap
  }
  std::istringstream iss(line);
  std::string target;
  std::string version;
  if (!(iss >> out->method >> target >> version)) {
    return false;
  }
  if (out->method != "GET" && out->method != "HEAD") {
    return false;
  }
  std::size_t q = target.find('?');
  if (q == std::string::npos) {
    out->path = target;
    out->query.clear();
  } else {
    out->path = target.substr(0, q);
    out->query = target.substr(q + 1);
  }
  return true;
}

std::string RenderHttpResponse(const HttpResponse& resp) {
  std::ostringstream oss;
  oss << "HTTP/1.0 " << resp.status << (resp.status == 200 ? " OK" : " Error") << "\r\n"
      << "Content-Type: " << resp.content_type << "\r\n"
      << "Content-Length: " << resp.body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << resp.body;
  return oss.str();
}

std::string RenderHttpResponse11(const HttpResponse& resp, bool keep_alive) {
  std::ostringstream oss;
  oss << "HTTP/1.1 " << resp.status << (resp.status == 200 ? " OK" : " Error") << "\r\n"
      << "Content-Type: " << resp.content_type << "\r\n"
      << "Content-Length: " << resp.body.size() << "\r\n"
      << "Connection: " << (keep_alive ? "keep-alive" : "close") << "\r\n\r\n"
      << resp.body;
  return oss.str();
}

void HttpRequestFramer::Append(const std::uint8_t* data, std::size_t len) {
  if (overflowed_ || len == 0) {
    return;
  }
  buf_.append(reinterpret_cast<const char*>(data), len);
  if (next_end_ == std::string::npos) {
    Rescan(scan_from_);
  }
  if (next_end_ == std::string::npos && buf_.size() > kMaxRequestBytes) {
    overflowed_ = true;
  }
}

void HttpRequestFramer::Rescan(std::size_t from) {
  // The terminator may straddle the previous chunk's tail: back up by up to
  // three bytes so a split "\r\n\r\n" is still found exactly once.
  std::size_t start = from > 3 ? from - 3 : 0;
  std::size_t pos = buf_.find("\r\n\r\n", start);
  if (pos == std::string::npos) {
    next_end_ = std::string::npos;
    scan_from_ = buf_.size();
  } else {
    next_end_ = pos + 4;
  }
}

bool HttpRequestFramer::PopRequest(std::string* out) {
  if (next_end_ == std::string::npos) {
    return false;
  }
  out->assign(buf_, 0, next_end_);
  buf_.erase(0, next_end_);
  scan_from_ = 0;
  Rescan(0);
  // A pipelined remainder must respect the cap on its own.
  if (next_end_ == std::string::npos && buf_.size() > kMaxRequestBytes) {
    overflowed_ = true;
  }
  return true;
}

const std::string& StaticIndexPage() {
  // ~4.1 KB, matching the paper's static page size. Built once; the static's
  // initialization is thread-safe, and host threads serve from it in parallel.
  static const std::string kPage = [] {
    std::string body =
        "<html><head><title>Barrelfish multikernel reproduction</title></head><body>\n"
        "<h1>The multikernel: a new OS architecture for scalable multicore systems</h1>\n";
    while (body.size() < 4096) {
      body +=
          "<p>The machine is a network of cores; the OS is a distributed system of\n"
          "processes communicating by message passing, with replicated state kept\n"
          "consistent by agreement protocols.</p>\n";
    }
    body += "</body></html>\n";
    return body;
  }();
  return kPage;
}

HttpServer::HttpServer(hw::Machine& machine, net::NetStack& stack, std::uint16_t port,
                       DbQueryFn db_query, Cycles request_cost)
    : machine_(machine), stack_(stack), port_(port), db_query_(std::move(db_query)),
      request_cost_(request_cost), pending_ready_(machine.exec()) {}

Task<HttpResponse> HttpServer::Handle(const HttpRequest& req) {
  ++requests_served_;
  co_await machine_.Compute(stack_.core(), request_cost_);
  HttpResponse resp;
  if (req.path == "/" || req.path == "/index.html") {
    resp.body = StaticIndexPage();
    co_return resp;
  }
  if (req.path == "/query" && db_query_) {
    // /query?sql=... with '+' encoding spaces (the only reserved character
    // the generated queries contain).
    std::string sql = req.query.rfind("sql=", 0) == 0 ? req.query.substr(4) : req.query;
    for (char& ch : sql) {
      if (ch == '+') {
        ch = ' ';
      }
    }
    resp.body = co_await db_query_(sql);
    co_return resp;
  }
  if (req.path == "/buy" && db_exec_) {
    // /buy?wid=N&sql=... — split on the FIRST '&' only: the SQL itself
    // contains '=' (UPDATE ... SET col = v), so naive param splitting would
    // shred it. '+' encodes spaces, as on /query.
    std::uint64_t wid = 0;
    bool wid_ok = false;
    std::string sql;
    std::size_t amp = req.query.find('&');
    if (req.query.rfind("wid=", 0) == 0 && amp != std::string::npos) {
      // The wid must be all digits up to the '&' and fit in 64 bits: a
      // truncated parse of a malformed wid (wid=12x) or a wrapped one
      // (2^64 + 1 is 1) could collide with another client's write id and
      // dedup a write that was never applied.
      wid_ok = ParseWriteId(std::string_view(req.query).substr(4, amp - 4), &wid);
      sql = req.query.substr(amp + 1);
      if (sql.rfind("sql=", 0) == 0) {
        sql = sql.substr(4);
      }
    }
    if (!wid_ok || sql.empty()) {
      resp.status = 400;
      resp.body = "bad buy request";
      co_return resp;
    }
    for (char& ch : sql) {
      if (ch == '+') {
        ch = ' ';
      }
    }
    resp.body = co_await db_exec_(wid, sql);
    co_return resp;
  }
  resp.status = 404;
  resp.body = "<html><body>not found</body></html>";
  co_return resp;
}

Task<> HttpServer::ServeConnection(net::NetStack::TcpConn* conn) {
  if (keep_.enabled) {
    co_await ServeConnectionKeepAlive(conn);
    co_return;
  }
  std::string request_text;
  while (true) {
    std::vector<std::uint8_t> chunk = co_await conn->Read();
    if (chunk.empty()) {
      co_return;  // peer closed before a full request
    }
    request_text.append(chunk.begin(), chunk.end());
    if (request_text.find("\r\n\r\n") != std::string::npos ||
        request_text.find('\n') != std::string::npos ||
        request_text.size() > kMaxRequestBytes) {
      break;
    }
  }
  if (machine_.Halted(stack_.core())) {
    co_return;  // fail-stop mid-request: the client never hears back
  }
  HttpRequest req;
  HttpResponse resp;
  if (request_text.size() > kMaxRequestBytes ||
      !ParseHttpRequest(request_text, &req)) {
    resp.status = 400;
    resp.body = "bad request";
  } else {
    resp = co_await Handle(req);
  }
  if (machine_.Halted(stack_.core())) {
    co_return;
  }
  co_await stack_.TcpSend(*conn, RenderHttpResponse(resp));
  co_await stack_.TcpClose(*conn);
  stack_.Release(conn);  // no-op in legacy mode; reap-enabling in lifecycle
}

Task<> HttpServer::ServeConnectionKeepAlive(net::NetStack::TcpConn* conn) {
  HttpRequestFramer framer;
  int served_on_conn = 0;
  Cycles request_start = 0;
  bool open = true;
  while (open) {
    // Accumulate bytes until a complete request, a deadline, or a close.
    while (!framer.HasRequest() && !framer.overflowed()) {
      Cycles wait = 0;
      if (framer.buffered() == 0) {
        wait = keep_.idle_timeout;
      } else if (keep_.header_deadline > 0) {
        // The slowloris budget is total-per-request, measured from the
        // request's first byte — a one-byte-per-interval trickler exhausts
        // it no matter how it paces.
        Cycles elapsed = machine_.exec().now() - request_start;
        wait = elapsed >= keep_.header_deadline ? 1 : keep_.header_deadline - elapsed;
      }
      bool ok = co_await stack_.WaitReadable(*conn, wait);
      if (machine_.Halted(stack_.core())) {
        co_return;  // fail-stop: the handler dies with its core
      }
      if (!ok) {
        if (framer.buffered() == 0) {
          ++idle_closes_;  // idle keep-alive connection: close quietly
          trace::Emit<trace::Category::kConn>(trace::EventId::kConnTimeout,
                                              machine_.exec().now(), stack_.core(),
                                              /*kind=*/1);
          open = false;
          break;
        }
        // Slowloris: bytes trickled in but the request never completed
        // within its budget. Answer 408 and count it as a shed so the
        // admission layer's books include defended connections.
        ++shed_progress_;
        trace::Emit<trace::Category::kRecover>(trace::EventId::kRecoverShed,
                                               machine_.exec().now(), stack_.core(),
                                               /*cause=*/2);
        trace::Emit<trace::Category::kConn>(trace::EventId::kConnTimeout,
                                            machine_.exec().now(), stack_.core(),
                                            /*kind=*/2);
        HttpResponse resp;
        resp.status = 408;
        resp.body = "request timeout";
        co_await stack_.TcpSend(*conn, RenderHttpResponse11(resp, false));
        open = false;
        break;
      }
      bool was_empty = framer.buffered() == 0;
      std::vector<std::uint8_t> chunk = co_await conn->Read();
      if (chunk.empty()) {
        open = false;  // peer closed
        break;
      }
      if (was_empty) {
        request_start = machine_.exec().now();
      }
      framer.Append(chunk.data(), chunk.size());
    }
    if (!open) {
      break;
    }
    if (framer.overflowed()) {
      ++bad_requests_;
      HttpResponse resp;
      resp.status = 400;
      resp.body = "bad request";
      co_await stack_.TcpSend(*conn, RenderHttpResponse11(resp, false));
      break;
    }
    // Serve the buffered burst of pipelined requests in order, bounded by
    // max_pipeline per wakeup; depth beyond the bound closes the connection
    // after serving the bounded prefix.
    int burst = 0;
    std::string text;
    while (open && framer.PopRequest(&text)) {
      bool last = false;
      HttpRequest req;
      HttpResponse resp;
      if (!ParseHttpRequest(text, &req)) {
        ++bad_requests_;
        resp.status = 400;
        resp.body = "bad request";
        last = true;
      } else {
        resp = co_await Handle(req);
      }
      ++served_on_conn;
      ++burst;
      if (!last && keep_.max_requests > 0 && served_on_conn >= keep_.max_requests) {
        ++budget_closes_;  // per-connection request budget exhausted
        last = true;
      }
      if (!last && keep_.max_pipeline > 0 && burst >= keep_.max_pipeline &&
          framer.HasRequest()) {
        ++pipeline_closes_;
        last = true;
      }
      if (machine_.Halted(stack_.core())) {
        co_return;
      }
      co_await stack_.TcpSend(*conn, RenderHttpResponse11(resp, !last));
      if (last) {
        open = false;
      }
    }
    if (open && framer.buffered() > 0) {
      request_start = machine_.exec().now();  // partial next request began now
    }
  }
  co_await stack_.TcpClose(*conn);
  stack_.Release(conn);
}

Task<> HttpServer::ShedConnection(net::NetStack::TcpConn* conn) {
  HttpResponse resp;
  resp.status = 503;
  resp.body = "overloaded";
  // Named local, not a ternary inside the co_await: a conditional operator's
  // class-type temporary in an await expression trips a GCC coroutine
  // frame-cleanup bug (both branch cleanups run -> double free).
  std::string payload = keep_.enabled ? RenderHttpResponse11(resp, false)
                                      : RenderHttpResponse(resp);
  co_await stack_.TcpSend(*conn, payload);
  co_await stack_.TcpClose(*conn);
  stack_.Release(conn);
}

Task<> HttpServer::Worker() {
  while (true) {
    while (pending_.empty()) {
      co_await pending_ready_.Wait();
    }
    auto [conn, enqueued_at] = pending_.front();
    pending_.pop_front();
    if (machine_.Halted(stack_.core())) {
      co_return;  // fail-stop: the worker dies with its core
    }
    if (admission_.queue_deadline > 0 &&
        machine_.exec().now() - enqueued_at > admission_.queue_deadline) {
      ++shed_deadline_;
      trace::Emit<trace::Category::kRecover>(trace::EventId::kRecoverShed,
                                             machine_.exec().now(), stack_.core(),
                                             /*cause=*/1);
      co_await ShedConnection(conn);
      continue;
    }
    co_await ServeConnection(conn);
  }
}

Task<> HttpServer::Serve() {
  auto& listener = stack_.TcpListen(port_);
  for (int w = 0; w < admission_.workers; ++w) {
    machine_.exec().Spawn(Worker());
  }
  while (true) {
    net::NetStack::TcpConn* conn = co_await listener.Accept();
    if (admission_.workers == 0) {
      machine_.exec().Spawn(ServeConnection(conn));  // legacy: unbounded
      continue;
    }
    if (machine_.Halted(stack_.core())) {
      co_return;
    }
    if (admission_.max_pending > 0 &&
        static_cast<int>(pending_.size()) >= admission_.max_pending) {
      ++shed_queue_full_;
      trace::Emit<trace::Category::kRecover>(trace::EventId::kRecoverShed,
                                             machine_.exec().now(), stack_.core(),
                                             /*cause=*/0);
      machine_.exec().Spawn(ShedConnection(conn));
      continue;
    }
    pending_.emplace_back(conn, machine_.exec().now());
    pending_ready_.Signal();
  }
}

void PopulateTpcw(Database* db, int items, std::uint64_t seed) {
  db->Exec("CREATE TABLE authors (a_id INT, a_name TEXT)");
  db->Exec("CREATE TABLE items (i_id INT, i_title TEXT, i_a_id INT, i_stock INT, "
           "i_cost INT)");
  sim::Rng rng(seed);
  int n_authors = items / 4 + 1;
  for (int a = 0; a < n_authors; ++a) {
    db->Exec("INSERT INTO authors VALUES (" + std::to_string(a) + ", 'author-" +
             std::to_string(a) + "')");
  }
  for (int i = 0; i < items; ++i) {
    db->Exec("INSERT INTO items VALUES (" + std::to_string(i) + ", 'item-" +
             std::to_string(i) + "', " +
             std::to_string(rng.Below(static_cast<std::uint64_t>(n_authors))) + ", " +
             std::to_string(rng.Below(1000)) + ", " + std::to_string(rng.Below(10000)) +
             ")");
  }
}

std::string TpcwQuery(int item_id) {
  return "SELECT i_id, i_title, i_stock, i_cost FROM items WHERE i_id = " +
         std::to_string(item_id) + " LIMIT 1";
}

}  // namespace mk::apps
