// SocketServer: JSON-lines front end to a QueryService over a Unix-domain
// stream socket.
//
// Wire protocol (DESIGN.md section 10): the client writes one JSON object
// per '\n'-terminated line; the server answers each with one or more
// '\n'-terminated JSON lines, all carrying the request's "id" back. Every
// line is compact json::Serialize output, keys sorted, so the bytes on the
// wire are exactly as shown below (clients may match lines by prefix, e.g.
// a result line by `{"ev":"result"`).
//
//   request:  {"op":"query","id":1,"program":"<datalog>","query":"t(1,X)",
//              "strategy":"auto","cache":true,
//              "limits":{"timeout_ms":N,"max_tuples":N,"max_bytes":N,
//                        "max_iterations":N}}
//             "query" is optional — omitted, every '?- q.' in the program
//             runs. "limits" members are each optional.
//   response: {"ev":"begin","id":1,"query":"t(1, X)"}
//             {"ev":"result","id":1,"tuple":"(a, b)"}         (per tuple)
//             {"answers":2,"closure_cache":"miss","closure_stored":true,
//              "detections":0,"ev":"answer","generation":3,"id":1,
//              "notes":[{"code":"...","message":"..."}],"partial":false,
//              "passes":"...","plan_cache":"hit","reason":"...",
//              "seconds":0.0012,"strategy":"separable"}
//                                        (one per query; "notes" and
//                                         "passes" appear when non-empty,
//                                         "cause" when partial is true)
//             {"ev":"done","id":1,"ok":true}
//
//   other ops (each answered with a single "done" or "error" line):
//     {"op":"load","id":2,"relation":"edge","path":"edge.tsv"}
//     {"op":"load","id":3,"relation":"edge","rows":[["a","b"],["b","c"]]}
//     {"op":"load","id":8,"relation":"edge","mode":"delete",
//      "rows":[["a","b"]]}
//         -> {"added":N,"changed":N,"ev":"done","generation":G,"id":...,
//             "ok":true}
//         "mode" is "insert" (default) or "delete"; both modes validate
//         the whole batch, append one typed WAL record, and apply through
//         the service's incremental closure-maintenance path ("changed"
//         counts the rows that actually changed the relation; "added"
//         repeats it for protocol back-compat). Inline "rows" is a
//         non-empty array of rows, each a non-empty array of one length
//         whose cells are strings or integers; a string cell is typed as
//         a TSV column is ("42" is an integer). A cell may not hold a
//         tab, CR or LF, and a row's first cell may not start with '#'
//         (nor be a one-column row's empty cell): those rows have no TSV
//         line. Anything else answers INVALID_ARGUMENT naming the row
//         ("line R", counted from 1 as in a TSV file) and column, and
//         applies nothing. A mutation that
//         changed anything re-evaluates every subscription and pushes
//         delta events (below) before the next request on this
//         connection runs.
//     {"op":"subscribe","id":9,"program":"<datalog>","query":"tc(a,X)",
//      "limits":{...}}
//         -> {"answers":N,"ev":"done","generation":G,"id":9,"ok":true,
//             "subscription":S}
//         registers a prepared selection; N is the baseline answer size.
//         After every effective mutation the server re-evaluates the
//         selection (under the subscription's own limits) and pushes to
//         the SUBSCRIBING connection:
//             {"ev":"delta","generation":G,"query":"tc(a, X)",
//              "retracted":[],"subscription":S,"tuples":["(a, e)"]}
//         (only when something changed; "tuples" are newly derived,
//         "retracted" formerly derived). A subscription whose
//         re-evaluation fails or trips its governor budget is dropped
//         with {"ev":"dropped","reason":"...","subscription":S}.
//     {"op":"unsubscribe","id":10,"subscription":S}
//         -> {"ev":"done","id":10,"ok":true,"removed":true}
//         only the subscribing connection can unsubscribe; closing the
//         connection drops its subscriptions implicitly.
//     {"op":"stats","id":4}
//         -> {"ev":"done","id":4,"ok":true,"stats":{...}}
//         the service's cache counters, the live subscription count, and
//         the server's reply_writes / reply_bytes (batches written and
//         their bytes, over the server's lifetime)
//     {"op":"checkpoint","id":7}
//         -> {"ev":"done","generation":G,"id":7,"ok":true,
//             "snapshot":"snapshot-2.seprec","wal_bytes_truncated":N}
//         snapshots the database and truncates the WAL; answers
//         FAILED_PRECONDITION when the server runs without --data-dir
//     {"op":"ping","id":5}   -> {"ev":"done","id":5,"ok":true}
//     {"op":"shutdown","id":6} -> {"ev":"done","id":6,"ok":true}, then the
//         server stops accepting and Wait() returns.
//
//   errors:   {"code":"INVALID_ARGUMENT","ev":"error","id":1,
//              "message":"..."} — the connection stays usable; malformed
//              JSON (no id recoverable) answers with id -1. A request
//              line longer than max_line_bytes (default 16 MiB) answers
//              RESOURCE_EXHAUSTED and closes the connection.
//
// Concurrency: one accept thread plus one thread per connection. A reply
// (every line a request produces, or one subscription push) is buffered
// per request and written in batches of whole lines of at most 64 KiB
// (one longer line goes alone), each under the connection's write mutex:
// the mutex is taken once per batch, not per line. Its own thread writes
// a connection's replies; a MUTATING connection's thread takes the same
// mutex to push subscription delta events, so a push lands only between
// batches — never inside a line — even mid-query-stream. Cross-request
// consistency is the QueryService's problem (which see). Per-request
// limits isolate budgets: a request tripping its deadline degrades only
// its own reply, and each subscription re-evaluates under the limits its
// subscribe request carried.
#ifndef SEPREC_SERVER_SERVER_H_
#define SEPREC_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "server/service.h"
#include "util/status.h"

namespace seprec {

class SocketServer {
 public:
  // `service` is borrowed and must outlive the server.
  explicit SocketServer(QueryService* service);
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Binds and listens on `socket_path` (unlinking a stale file first) and
  // starts the accept thread.
  Status Start(const std::string& socket_path);

  // Blocks until Stop() is called or a client sends {"op":"shutdown"}.
  void Wait();

  // As Wait() but gives up after `ms` milliseconds; returns true when a
  // shutdown was requested. Lets a driver loop interleave signal checks.
  bool WaitFor(int ms);

  // Stops accepting, disconnects every session, joins all threads, and
  // unlinks the socket file. Idempotent.
  void Stop();

  // Maximum bytes buffered for one request line; a client exceeding it
  // (bytes with no '\n') gets a RESOURCE_EXHAUSTED error and is
  // disconnected. Call before Start().
  void set_max_line_bytes(size_t n) { max_line_bytes_ = n; }

  // Server-wide cap on live subscriptions; a subscribe past it answers
  // RESOURCE_EXHAUSTED. Call before Start().
  void set_max_subscriptions(size_t n) { max_subscriptions_ = n; }

 private:
  // One connection's write side: every batch of reply lines written to
  // this fd holds `write_mu`, so a subscription push from another
  // session's thread lands between this session's batches, never inside
  // one.
  struct Conn {
    int fd = -1;
    std::mutex write_mu;
  };
  // Buffers one reply and writes it to a Conn in whole-line batches
  // (server.cc).
  class Reply;
  // A registered selection: re-evaluated after every effective mutation,
  // with the delivered-tuple set diffed to find news and retractions.
  struct Subscription {
    uint64_t id = 0;
    std::shared_ptr<Conn> conn;
    ServiceRequest request;       // program + query + per-subscription limits
    std::string query_text;       // the query as parsed (event labelling)
    std::set<std::string> seen;   // tuples last delivered
  };

  void AcceptLoop();
  void Session(int fd);
  // Answers one request line into `reply`; the caller flushes it.
  void HandleLine(const std::shared_ptr<Conn>& conn, std::string_view line,
                  Reply* reply);
  // Re-evaluates every subscription and pushes delta events for those
  // whose answer changed; drops subscriptions that error, trip their
  // budget, or whose connection is gone. Runs on the mutating session's
  // thread, after the mutation's own "done" line.
  void NotifySubscribers();
  // Drops every subscription owned by `conn` (connection teardown).
  void DropSubscriptionsFor(const Conn* conn);
  void TraceSubscription(std::string_view cause, uint64_t id,
                         std::string_view detail, uint64_t delivered);

  QueryService* service_;
  std::string socket_path_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  std::thread accept_thread_;
  std::vector<std::thread> sessions_;   // guarded by mu_; running sessions
  std::vector<std::thread> finished_;   // guarded by mu_; exited sessions
                                        // awaiting a join (reaped by the
                                        // accept loop and by Stop())
  std::vector<int> session_fds_;        // guarded by mu_; open fds only
  size_t max_line_bytes_ = 16u << 20;   // per-connection line-length cap

  // Subscription registry. subs_mu_ is held for the whole notify sweep
  // (subscribe/unsubscribe wait it out); it is never taken while holding
  // mu_ or a Conn::write_mu, and the sweep takes write mutexes under it —
  // so the order is subs_mu_ -> write_mu, never the reverse.
  std::mutex subs_mu_;
  std::map<uint64_t, Subscription> subs_;
  std::atomic<uint64_t> next_sub_id_{1};
  size_t max_subscriptions_ = 64;

  // Reply batches written and their bytes (the `stats` op reports both).
  std::atomic<uint64_t> reply_writes_{0};
  std::atomic<uint64_t> reply_bytes_{0};

  std::mutex stop_mu_;  // serialises Stop(); never held with mu_ waits
  bool stopped_ = false;
};

}  // namespace seprec

#endif  // SEPREC_SERVER_SERVER_H_
