#include "server/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>

#include "server/json.h"
#include "storage/io.h"
#include "util/string_util.h"

namespace seprec {

namespace {

// A reply is written in batches of whole lines of at most this many bytes
// (one longer line goes alone): a 5,000-tuple reply costs a handful of
// send() calls instead of one per tuple, and a subscription push aimed at
// the same connection waits for at most one batch.
constexpr size_t kReplyBatchBytes = size_t{64} << 10;

// Full write with MSG_NOSIGNAL: a client that hung up mid-stream must
// surface as an error on this session's thread, not kill the process.
bool WriteAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// The members every "done" line carries.
json::Object Done(int64_t id) {
  json::Object obj;
  obj.emplace("id", json::Value(id));
  obj.emplace("ev", json::Value("done"));
  obj.emplace("ok", json::Value(true));
  return obj;
}

StatusOr<ExecutionLimits> ParseLimits(const json::Value& limits) {
  ExecutionLimits out;
  if (limits.is_null()) return out;
  if (!limits.is_object()) {
    return InvalidArgumentError("'limits' must be an object");
  }
  for (const auto& [key, value] : limits.as_object()) {
    int64_t n = value.as_int(-1);
    if (!value.is_number() || n < 0) {
      return InvalidArgumentError(
          StrCat("limit '", key, "' must be a non-negative number"));
    }
    if (key == "timeout_ms") out.timeout_ms = n;
    else if (key == "max_tuples") out.max_tuples = static_cast<size_t>(n);
    else if (key == "max_bytes") out.max_bytes = static_cast<size_t>(n);
    else if (key == "max_iterations") {
      out.max_iterations = static_cast<size_t>(n);
    } else {
      return InvalidArgumentError(StrCat("unknown limit '", key, "'"));
    }
  }
  return out;
}

// Builds a load's inline "rows" into a batch. A string cell is typed as
// the TSV reader types a column, so inline and file loads store the same
// values; rows a TSV line cannot carry are refused rather than altered.
StatusOr<TupleBatch> RowsToBatch(const std::string& relation, BatchOp op,
                                 const json::Array& rows) {
  if (rows.empty()) return InvalidArgumentError("'rows' is empty");
  TupleBatch batch;
  batch.relation = relation;
  batch.op = op;
  batch.rows.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    const json::Array& cells = rows[r].as_array();
    if (cells.empty()) {
      return InvalidArgumentError(
          StrCat("line ", r + 1, ": a row must be a non-empty array"));
    }
    if (r == 0) batch.arity = cells.size();
    if (cells.size() != batch.arity) {
      return InvalidArgumentError(
          StrCat("line ", r + 1, ": expected ", batch.arity,
                 " columns for relation '", relation, "', found ",
                 cells.size()));
    }
    std::vector<TypedCell> row;
    row.reserve(cells.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      auto bad = [&](std::string_view why) {
        return InvalidArgumentError(
            StrCat("line ", r + 1, ", column ", c + 1, ": ", why));
      };
      int64_t v = 0;
      if (cells[c].is_int()) {
        v = cells[c].as_int();
        if (v < Value::kMinInt || v > Value::kMaxInt) {
          return bad(StrCat("integer ", v, " out of range"));
        }
        row.push_back(TypedCell::Int(v));
        continue;
      }
      if (!cells[c].is_string()) {
        return bad("a cell must be a string or an integer");
      }
      const std::string& text = cells[c].as_string();
      // A tab or line break would split the TSV line; a first cell
      // starting with '#' makes it a comment, and an empty one-column row
      // an empty line, both of which the reader skips.
      if (text.find_first_of("\t\r\n") != std::string::npos) {
        return bad("a cell cannot contain a tab, CR or LF");
      }
      if (c == 0 && !text.empty() && text[0] == '#') {
        return bad("a row's first cell cannot start with '#'");
      }
      if (cells.size() == 1 && text.empty()) {
        return bad("a one-column row cannot be empty");
      }
      switch (ClassifyToken(text, &v)) {
        case TokenKind::kInt:
          row.push_back(TypedCell::Int(v));
          break;
        case TokenKind::kSymbol:
          row.push_back(TypedCell::Symbol(text));
          break;
        case TokenKind::kBadInt:
          return bad(StrCat("integer '", text, "' out of range"));
      }
    }
    batch.rows.push_back(std::move(row));
  }
  return batch;
}

}  // namespace

// Every response goes through one Reply: a request's lines (or one
// subscription push) are appended to a per-request buffer and written in
// batches of whole lines, each under the connection's write mutex, so a
// push from another session's thread lands only between batches.
class SocketServer::Reply {
 public:
  Reply(SocketServer* server, Conn* conn) : server_(server), conn_(conn) {}
  Reply(const Reply&) = delete;
  Reply& operator=(const Reply&) = delete;

  // The appenders return false once a write has failed (the client hung
  // up), so a long result stream can stop early.
  bool Line(json::Object obj) {
    const size_t start = buf_.size();
    buf_ += json::Serialize(json::Value(std::move(obj)));
    return EndLine(start);
  }

  bool Error(int64_t id, const Status& status) {
    json::Object obj;
    obj.emplace("id", json::Value(id));
    obj.emplace("ev", json::Value("error"));
    obj.emplace("code",
                json::Value(std::string(StatusCodeToString(status.code()))));
    obj.emplace("message", json::Value(status.message()));
    return Line(std::move(obj));
  }

  // Appends the bytes Line() would for {"ev":"result","id":id,
  // "tuple":tuple} without building the object: result lines are nearly
  // all of a large reply.
  bool Result(int64_t id, std::string_view tuple) {
    const size_t start = buf_.size();
    buf_ += R"({"ev":"result","id":)";
    char digits[24];
    buf_.append(digits,
                std::to_chars(digits, digits + sizeof(digits), id).ptr);
    buf_ += R"(,"tuple":")";
    json::EscapeTo(tuple, &buf_);
    buf_ += R"("})";
    return EndLine(start);
  }

  // Writes whatever is buffered: the end of the reply.
  bool Flush() {
    if (!buf_.empty()) Write(buf_.size());
    return ok_;
  }

 private:
  // Terminates the line that starts at `start`. When it would carry the
  // batch past kReplyBatchBytes, the lines before it go out first.
  bool EndLine(size_t start) {
    buf_.push_back('\n');
    if (buf_.size() > kReplyBatchBytes && start > 0) Write(start);
    if (buf_.size() >= kReplyBatchBytes) Write(buf_.size());
    return ok_;
  }

  // Writes the first `n` buffered bytes (whole lines) and drops them.
  void Write(size_t n) {
    if (ok_) {
      std::lock_guard<std::mutex> lock(conn_->write_mu);
      ok_ = WriteAll(conn_->fd, std::string_view(buf_.data(), n));
    }
    if (ok_) {
      server_->reply_writes_.fetch_add(1, std::memory_order_relaxed);
      server_->reply_bytes_.fetch_add(n, std::memory_order_relaxed);
    }
    buf_.erase(0, n);
  }

  SocketServer* server_;
  Conn* conn_;
  std::string buf_;
  bool ok_ = true;
};

SocketServer::SocketServer(QueryService* service) : service_(service) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start(const std::string& socket_path) {
  socket_path_ = socket_path;
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): Start() runs before any
    // server thread exists, so the static strerror buffer is unshared.
    return InternalError(StrCat("socket(): ", std::strerror(errno)));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return InvalidArgumentError(
        StrCat("socket path too long (", socket_path.size(), " bytes): ",
               socket_path));
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ::unlink(socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status status = InternalError(
        // NOLINTNEXTLINE(concurrency-mt-unsafe): pre-thread startup path.
        StrCat("bind(", socket_path, "): ", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) != 0) {
    Status status =
        // NOLINTNEXTLINE(concurrency-mt-unsafe): pre-thread startup path.
        InternalError(StrCat("listen(): ", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SocketServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop()
    }
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        break;
      }
      session_fds_.push_back(fd);
      sessions_.emplace_back([this, fd] { Session(fd); });
      finished.swap(finished_);
    }
    // Reap exited sessions: each handle in finished_ was parked there by
    // its own thread on the way out, so these joins return promptly. A
    // long-lived server must not accumulate one unjoined thread (and its
    // kernel resources) per connection ever served.
    for (std::thread& t : finished) t.join();
  }
}

void SocketServer::Session(int fd) {
  if (service_->trace() != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kSession;
    ev.cause = "open";
    ev.detail = StrCat("fd", fd);
    service_->trace()->Emit(ev);
  }
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  std::string buffer;  // the partial line carried between recv() calls
  char chunk[4096];
  while (!stopping_.load(std::memory_order_acquire)) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // client hung up (or Stop() shut the socket down)
    // The carried partial line holds no '\n' (it was searched when it
    // arrived), so the search starts at the new bytes: a line spanning
    // many recv() calls is scanned once, not once per call.
    size_t scan = buffer.size();
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;  // first byte of the next unconsumed line
    size_t nl = 0;
    while ((nl = buffer.find('\n', scan)) != std::string::npos) {
      std::string_view line(buffer.data() + start, nl - start);
      start = scan = nl + 1;
      if (line.empty()) continue;
      Reply reply(this, conn.get());
      HandleLine(conn, line, &reply);
      reply.Flush();
    }
    buffer.erase(0, start);  // one compaction for all the lines consumed
    if (buffer.size() > max_line_bytes_) {
      // A client streaming bytes with no '\n' would otherwise grow this
      // buffer without bound; fail the connection before it can exhaust
      // server memory.
      Reply reply(this, conn.get());
      reply.Error(-1, ResourceExhaustedError(StrCat(
                          "request line exceeds ", max_line_bytes_, " bytes")));
      reply.Flush();
      break;
    }
  }
  // Drop this connection's subscriptions BEFORE closing the fd: the
  // registry waits out any in-flight notify sweep (subs_mu_), so no push
  // can land on a recycled descriptor number.
  DropSubscriptionsFor(conn.get());
  if (service_->trace() != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kSession;
    ev.cause = "close";
    ev.detail = StrCat("fd", fd);
    service_->trace()->Emit(ev);
  }
  {
    // Deregister before closing so Stop() never shutdown()s a recycled
    // descriptor number.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(session_fds_.begin(), session_fds_.end(), fd);
    if (it != session_fds_.end()) session_fds_.erase(it);
    // Park this thread's own handle on the reap list for the accept loop
    // (or Stop()) to join; absent under Stop(), which already swapped
    // sessions_ out and joins the handle itself.
    const std::thread::id self = std::this_thread::get_id();
    for (auto ts = sessions_.begin(); ts != sessions_.end(); ++ts) {
      if (ts->get_id() == self) {
        finished_.push_back(std::move(*ts));
        sessions_.erase(ts);
        break;
      }
    }
  }
  ::close(fd);
}

void SocketServer::HandleLine(const std::shared_ptr<Conn>& conn,
                              std::string_view line, Reply* reply) {
  StatusOr<json::Value> parsed = json::Parse(line);
  if (!parsed.ok()) {
    reply->Error(-1, parsed.status());
    return;
  }
  const json::Value& req = *parsed;
  int64_t id = req.Get("id").as_int(-1);
  const std::string& op = req.Get("op").as_string();

  if (op == "ping") {
    reply->Line(Done(id));
    return;
  }

  if (op == "shutdown") {
    // The ack goes out before Wait() returns: the caller's Stop() shuts
    // every session socket down.
    reply->Line(Done(id));
    reply->Flush();
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
    return;
  }

  if (op == "stats") {
    ServiceStats s = service_->stats();
    json::Object stats;
    stats.emplace("requests", json::Value(s.requests));
    stats.emplace("processor_hits", json::Value(s.processor_hits));
    stats.emplace("processor_misses", json::Value(s.processor_misses));
    stats.emplace("plan_hits", json::Value(s.plan_hits));
    stats.emplace("plan_misses", json::Value(s.plan_misses));
    stats.emplace("closure_hits", json::Value(s.closure_hits));
    stats.emplace("closure_misses", json::Value(s.closure_misses));
    stats.emplace("closure_stores", json::Value(s.closure_stores));
    stats.emplace("closure_patches", json::Value(s.closure_patches));
    stats.emplace("closure_drops", json::Value(s.closure_drops));
    stats.emplace("processors", json::Value(s.processors));
    stats.emplace("plans", json::Value(s.plans));
    stats.emplace("closures", json::Value(s.closures));
    stats.emplace("generation", json::Value(s.generation));
    stats.emplace("reply_writes", json::Value(reply_writes_.load(
                                      std::memory_order_relaxed)));
    stats.emplace("reply_bytes", json::Value(reply_bytes_.load(
                                     std::memory_order_relaxed)));
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      stats.emplace("subscriptions", json::Value(subs_.size()));
    }
    json::Object obj = Done(id);
    obj.emplace("stats", json::Value(std::move(stats)));
    reply->Line(std::move(obj));
    return;
  }

  if (op == "checkpoint") {
    StatusOr<CheckpointInfo> info = service_->Checkpoint();
    if (!info.ok()) {
      reply->Error(id, info.status());
      return;
    }
    json::Object obj = Done(id);
    obj.emplace("snapshot", json::Value(info->snapshot_file));
    obj.emplace("generation", json::Value(info->generation));
    obj.emplace("wal_bytes_truncated",
                json::Value(info->wal_bytes_truncated));
    reply->Line(std::move(obj));
    return;
  }

  if (op == "load") {
    const std::string& relation = req.Get("relation").as_string();
    if (relation.empty()) {
      reply->Error(id, InvalidArgumentError("'load' needs a 'relation' name"));
      return;
    }
    const std::string& mode = req.Get("mode").as_string();
    BatchOp batch_op = BatchOp::kInsert;
    if (mode == "delete") {
      batch_op = BatchOp::kDelete;
    } else if (!mode.empty() && mode != "insert") {
      reply->Error(id, InvalidArgumentError(StrCat(
                           "unknown load mode '", mode,
                           "' (expected 'insert' or 'delete')")));
      return;
    }
    StatusOr<size_t> changed = InternalError("unreachable");
    if (req.Has("path")) {
      changed = service_->ApplyTsvFile(relation, batch_op,
                                       req.Get("path").as_string());
    } else if (req.Get("rows").is_array()) {
      StatusOr<TupleBatch> batch =
          RowsToBatch(relation, batch_op, req.Get("rows").as_array());
      changed = batch.ok() ? service_->Apply(*batch)
                           : StatusOr<size_t>(batch.status());
    } else {
      reply->Error(id, InvalidArgumentError("'load' needs 'path' or 'rows'"));
      return;
    }
    if (!changed.ok()) {
      reply->Error(id, changed.status());
      return;
    }
    json::Object obj = Done(id);
    // "added" predates delete mode; it repeats "changed" so existing
    // clients keep working.
    obj.emplace("added", json::Value(*changed));
    obj.emplace("changed", json::Value(*changed));
    obj.emplace("generation", json::Value(service_->db()->generation()));
    reply->Line(std::move(obj));
    // Push subscription deltas AFTER the mutator's ack is written: its
    // thread does the fan-out, so its next request waits for the sweep,
    // but the mutation itself is acknowledged promptly.
    reply->Flush();
    if (*changed > 0) NotifySubscribers();
    return;
  }

  if (op == "subscribe") {
    ServiceRequest request;
    request.program = req.Get("program").as_string();
    request.query = req.Get("query").as_string();
    if (request.program.empty() || request.query.empty()) {
      reply->Error(id, InvalidArgumentError(
                           "'subscribe' needs 'program' and a single 'query'"));
      return;
    }
    StatusOr<ExecutionLimits> limits = ParseLimits(req.Get("limits"));
    if (!limits.ok()) {
      reply->Error(id, limits.status());
      return;
    }
    request.limits = *limits;
    // Baseline run: validates the program/query and records the tuples
    // already derivable, so the first delta event reports only news.
    StatusOr<std::vector<QueryOutcome>> outcomes =
        service_->Execute(request);
    if (!outcomes.ok()) {
      reply->Error(id, outcomes.status());
      return;
    }
    if (outcomes->size() != 1) {
      reply->Error(id,
                   InvalidArgumentError("'subscribe' takes exactly one query"));
      return;
    }
    const QueryOutcome& base = (*outcomes)[0];
    if (base.result.partial) {
      reply->Error(id, ResourceExhaustedError(
                           "subscription baseline tripped its governor "
                           "budget; raise 'limits' or narrow the query"));
      return;
    }
    Subscription sub;
    sub.id = next_sub_id_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t sid = sub.id;
    sub.conn = conn;
    sub.request = std::move(request);
    sub.query_text = base.query_text;
    sub.seen.insert(base.tuples.begin(), base.tuples.end());
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      if (subs_.size() >= max_subscriptions_) {
        reply->Error(id, ResourceExhaustedError(
                             StrCat("subscription limit reached (",
                                    max_subscriptions_, ")")));
        return;
      }
      subs_.emplace(sid, std::move(sub));
    }
    TraceSubscription("subscribe", sid, base.query_text, 0);
    json::Object obj = Done(id);
    obj.emplace("subscription", json::Value(sid));
    obj.emplace("answers", json::Value(base.tuples.size()));
    obj.emplace("generation", json::Value(base.generation));
    reply->Line(std::move(obj));
    return;
  }

  if (op == "unsubscribe") {
    if (!req.Has("subscription")) {
      reply->Error(id, InvalidArgumentError(
                           "'unsubscribe' needs a 'subscription' id"));
      return;
    }
    const uint64_t sid =
        static_cast<uint64_t>(req.Get("subscription").as_int(0));
    bool removed = false;
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      auto it = subs_.find(sid);
      // Only the owning connection may unsubscribe: ids are easy to
      // guess, and cancelling another session's feed is a denial of
      // service.
      if (it != subs_.end() && it->second.conn.get() == conn.get()) {
        subs_.erase(it);
        removed = true;
      }
    }
    if (removed) TraceSubscription("unsubscribe", sid, "", 0);
    json::Object obj = Done(id);
    obj.emplace("removed", json::Value(removed));
    reply->Line(std::move(obj));
    return;
  }

  if (op == "query") {
    ServiceRequest request;
    request.program = req.Get("program").as_string();
    request.query = req.Get("query").as_string();
    if (request.program.empty()) {
      reply->Error(id, InvalidArgumentError("'query' needs a 'program'"));
      return;
    }
    // A missing or empty "strategy" means auto.
    const std::string& strategy_name = req.Get("strategy").as_string();
    StatusOr<Strategy> strategy = strategy_name.empty()
                                      ? Strategy::kAuto
                                      : ParseStrategy(strategy_name);
    if (!strategy.ok()) {
      reply->Error(id, strategy.status());
      return;
    }
    request.strategy = *strategy;
    StatusOr<ExecutionLimits> limits = ParseLimits(req.Get("limits"));
    if (!limits.ok()) {
      reply->Error(id, limits.status());
      return;
    }
    request.limits = *limits;
    if (req.Has("cache")) request.use_cache = req.Get("cache").as_bool(true);
    if (req.Has("optimize")) {
      request.optimize = req.Get("optimize").as_bool(true);
    }

    StatusOr<std::vector<QueryOutcome>> outcomes =
        service_->Execute(request);
    if (!outcomes.ok()) {
      reply->Error(id, outcomes.status());
      return;
    }
    for (const QueryOutcome& out : *outcomes) {
      {
        json::Object obj;
        obj.emplace("id", json::Value(id));
        obj.emplace("ev", json::Value("begin"));
        obj.emplace("query", json::Value(out.query_text));
        if (!reply->Line(std::move(obj))) return;
      }
      for (const std::string& tuple : out.tuples) {
        if (!reply->Result(id, tuple)) return;
      }
      json::Object obj;
      obj.emplace("id", json::Value(id));
      obj.emplace("ev", json::Value("answer"));
      obj.emplace("answers", json::Value(out.result.answer.size()));
      obj.emplace("strategy",
                  json::Value(std::string(
                      StrategyToString(out.result.strategy))));
      obj.emplace("reason", json::Value(out.result.reason));
      obj.emplace("plan_cache",
                  json::Value(out.plan_cache_hit ? "hit" : "miss"));
      obj.emplace("closure_cache",
                  json::Value(out.closure_cache_hit ? "hit" : "miss"));
      obj.emplace("closure_stored", json::Value(out.closure_stored));
      obj.emplace("detections", json::Value(out.detection_passes));
      if (!out.pass_summary.empty()) {
        obj.emplace("passes", json::Value(out.pass_summary));
      }
      obj.emplace("generation", json::Value(out.generation));
      obj.emplace("partial", json::Value(out.result.partial));
      if (out.result.partial && out.result.degradation.has_value()) {
        obj.emplace("cause",
                    json::Value(std::string(StopCauseToString(
                        out.result.degradation->cause))));
      }
      json::Array notes;
      for (const Diagnostic& d : out.result.diagnostics) {
        json::Object note;
        note.emplace("code", json::Value(d.code));
        note.emplace("message", json::Value(d.message));
        notes.emplace_back(std::move(note));
      }
      if (!notes.empty()) {
        obj.emplace("notes", json::Value(std::move(notes)));
      }
      obj.emplace("seconds", json::Value(out.seconds));
      if (!reply->Line(std::move(obj))) return;
    }
    reply->Line(Done(id));
    return;
  }

  reply->Error(id, InvalidArgumentError(StrCat("unknown op '", op, "'")));
}

void SocketServer::NotifySubscribers() {
  // subs_mu_ is held for the whole sweep: concurrent mutators serialise
  // their fan-outs here (the service already serialised the mutations),
  // so per-subscription `seen` updates never race and every subscriber
  // observes deltas in mutation order.
  std::lock_guard<std::mutex> lock(subs_mu_);
  std::vector<uint64_t> dead;
  for (auto& [sid, sub] : subs_) {
    StatusOr<std::vector<QueryOutcome>> outcomes =
        service_->Execute(sub.request);
    std::string drop_reason;
    if (!outcomes.ok()) {
      drop_reason = outcomes.status().ToString();
    } else if (outcomes->size() != 1) {
      drop_reason = "subscription produced no outcome";
    } else if ((*outcomes)[0].result.partial) {
      // The per-subscription governor budget tripped: the answer set is
      // incomplete, so diffs against it would fabricate retractions.
      // Dropping beats silently delivering wrong deltas.
      drop_reason = "governor budget tripped";
    }
    Reply push(this, sub.conn.get());
    if (!drop_reason.empty()) {
      json::Object obj;
      obj.emplace("ev", json::Value("dropped"));
      obj.emplace("subscription", json::Value(sid));
      obj.emplace("reason", json::Value(drop_reason));
      push.Line(std::move(obj));
      push.Flush();
      TraceSubscription("drop", sid, drop_reason, 0);
      dead.push_back(sid);
      continue;
    }
    const QueryOutcome& out = (*outcomes)[0];
    std::set<std::string> current(out.tuples.begin(), out.tuples.end());
    json::Array fresh;
    for (const std::string& t : current) {
      if (sub.seen.count(t) == 0) fresh.emplace_back(t);
    }
    json::Array retracted;
    for (const std::string& t : sub.seen) {
      if (current.count(t) == 0) retracted.emplace_back(t);
    }
    if (fresh.empty() && retracted.empty()) continue;  // no news
    const uint64_t delivered = fresh.size() + retracted.size();
    json::Object obj;
    obj.emplace("ev", json::Value("delta"));
    obj.emplace("subscription", json::Value(sid));
    obj.emplace("query", json::Value(sub.query_text));
    obj.emplace("tuples", json::Value(std::move(fresh)));
    obj.emplace("retracted", json::Value(std::move(retracted)));
    obj.emplace("generation", json::Value(out.generation));
    push.Line(std::move(obj));
    if (!push.Flush()) {
      dead.push_back(sid);  // subscriber hung up; reaped below
      continue;
    }
    sub.seen = std::move(current);
    TraceSubscription("notify", sid, sub.query_text, delivered);
  }
  for (uint64_t sid : dead) subs_.erase(sid);
}

void SocketServer::DropSubscriptionsFor(const Conn* conn) {
  std::lock_guard<std::mutex> lock(subs_mu_);
  for (auto it = subs_.begin(); it != subs_.end();) {
    if (it->second.conn.get() == conn) {
      TraceSubscription("drop", it->first, "connection closed", 0);
      it = subs_.erase(it);
    } else {
      ++it;
    }
  }
}

void SocketServer::TraceSubscription(std::string_view cause, uint64_t id,
                                     std::string_view detail,
                                     uint64_t delivered) {
  if (service_->trace() == nullptr) return;
  TraceEvent ev;
  ev.kind = TraceEventKind::kSubscription;
  ev.cause = std::string(cause);
  ev.detail = detail.empty() ? StrCat("sub", id)
                             : StrCat("sub", id, " ", detail);
  ev.delta = delivered;
  service_->trace()->Emit(ev);
}

void SocketServer::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

bool SocketServer::WaitFor(int ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return shutdown_cv_.wait_for(lock, std::chrono::milliseconds(ms),
                               [this] { return shutdown_requested_; });
}

void SocketServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
    // Sessions deregister their fd before closing it, so everything here
    // is still open; shutdown() unblocks their recv() without racing the
    // close.
    for (int fd : session_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (listen_fd_ >= 0) {
    // shutdown() unblocks accept(); close() alone does not on Linux. The
    // close and the listen_fd_ = -1 write wait for the join: the accept
    // loop re-reads listen_fd_ on every iteration, and closing early
    // could hand accept() a recycled descriptor number.
    ::shutdown(listen_fd_, SHUT_RDWR);
    // Sandboxed kernels (gVisor-style) reject that shutdown with
    // ENOTCONN and leave accept() blocked forever, so also wake the
    // loop with a throwaway connection: accept() returns it, the loop
    // sees stopping_ (already set above) and discards the fd. If the
    // backlog is full a wake-up is already queued, so the non-blocking
    // connect may fail freely; on mainline Linux the shut-down listener
    // refuses the connect and the shutdown alone did the waking.
    int wake = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (wake >= 0) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (socket_path_.size() < sizeof(addr.sun_path)) {
        std::memcpy(addr.sun_path, socket_path_.c_str(),
                    socket_path_.size() + 1);
        ::connect(wake, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      }
      ::close(wake);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.swap(sessions_);
    for (std::thread& t : finished_) sessions.push_back(std::move(t));
    finished_.clear();
  }
  for (std::thread& t : sessions) {
    if (t.joinable()) t.join();
  }
  if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
}

}  // namespace seprec
