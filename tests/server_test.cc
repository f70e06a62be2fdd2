// Tests for the query service layer: the JSON value/parser, the
// QueryService cache stack (plan, closure, generation invalidation,
// per-request budgets, concurrent sessions), and the socket server's
// JSON-lines protocol end to end.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datalog/parser.h"
#include "eval/trace.h"
#include "server/json.h"
#include "server/server.h"
#include "server/service.h"
#include "storage/database.h"
#include "storage/io.h"
#include "storage/recovery.h"
#include "util/string_util.h"

namespace seprec {
namespace {

// ---- JSON ------------------------------------------------------------------

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(json::Parse("null")->is_null());
  EXPECT_EQ(json::Parse("true")->as_bool(), true);
  EXPECT_EQ(json::Parse("false")->as_bool(), false);
  EXPECT_EQ(json::Parse("42")->as_int(), 42);
  EXPECT_EQ(json::Parse("-7")->as_int(), -7);
  EXPECT_DOUBLE_EQ(json::Parse("2.5")->as_double(), 2.5);
  EXPECT_EQ(json::Parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, ParseNestedAndRoundTrip) {
  const std::string text =
      R"({"a":[1,2,{"b":true}],"c":null,"d":"x\ny","e":-3})";
  auto v = json::Parse(text);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Get("a").as_array().size(), 3u);
  EXPECT_EQ(v->Get("a").as_array()[2].Get("b").as_bool(), true);
  EXPECT_TRUE(v->Get("c").is_null());
  EXPECT_EQ(v->Get("d").as_string(), "x\ny");
  // Serialize is canonical (sorted keys, no spaces): reparsing preserves
  // the value.
  auto again = json::Parse(json::Serialize(*v));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(json::Serialize(*again), json::Serialize(*v));
}

TEST(Json, ParseEscapes) {
  auto v = json::Parse(R"("A\t\\\"é")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "A\t\\\"\xc3\xa9");
  // Surrogate pair.
  auto pair = json::Parse(R"("😀")");
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(pair->as_string(), "\xf0\x9f\x98\x80");
}

TEST(Json, ParseErrors) {
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("[1,]").ok());
  EXPECT_FALSE(json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(json::Parse("tru").ok());
  EXPECT_FALSE(json::Parse("1 2").ok());
  // Depth bomb trips the recursion limit instead of the stack.
  EXPECT_FALSE(json::Parse(std::string(300, '[')).ok());
}

TEST(Json, GetOnMissingKeyIsNull) {
  auto v = json::Parse("{}");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->Get("absent").is_null());
  EXPECT_FALSE(v->Has("absent"));
}

// ---- QueryService ----------------------------------------------------------

constexpr const char* kTcProgram =
    "edge(a, b).\n"
    "edge(b, c).\n"
    "edge(c, d).\n"
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";

ServiceRequest TcRequest(const std::string& query) {
  ServiceRequest req;
  req.program = kTcProgram;
  req.query = query;
  return req;
}

TEST(QueryService, AnswersMatchOneShot) {
  Database db;
  QueryService service(&db);
  auto outcomes = service.Execute(TcRequest("tc(a, X)"));
  ASSERT_TRUE(outcomes.ok());
  ASSERT_EQ(outcomes->size(), 1u);
  const QueryOutcome& out = (*outcomes)[0];
  EXPECT_EQ(out.result.strategy, Strategy::kSeparable);
  EXPECT_EQ(out.tuples,
            (std::vector<std::string>{"(a, b)", "(a, c)", "(a, d)"}));
  // The service always rolls its checkpoint back: derived tuples must not
  // persist into the shared database. (The relation itself survives —
  // Prepare pre-creates IDB relations for plan binding — but empty.)
  const Relation* tc = db.Find("tc");
  ASSERT_NE(tc, nullptr);
  EXPECT_TRUE(tc->empty());
}

TEST(QueryService, PlanCacheHitSkipsDetectionAndCompile) {
  Database db;
  QueryService service(&db);
  auto first = service.Execute(TcRequest("tc(a, X)"));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE((*first)[0].plan_cache_hit);
  EXPECT_GT((*first)[0].detection_passes, 0u);

  auto second = service.Execute(TcRequest("tc(a, X)"));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE((*second)[0].plan_cache_hit);
  // The detection pass delta on a plan-cache hit is zero: the cached
  // processor and prepared plan carry all database-independent work.
  EXPECT_EQ((*second)[0].detection_passes, 0u);
  EXPECT_EQ((*second)[0].tuples, (*first)[0].tuples);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plan_hits, 1u);
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.processor_hits, 1u);
}

TEST(QueryService, ClosureCacheHitSkipsPhase1) {
  Database db;
  QueryService service(&db);
  // tc(X, d) anchors on a moving class: phase 1 genuinely iterates.
  auto cold = service.Execute(TcRequest("tc(X, d)"));
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE((*cold)[0].closure_cache_hit);
  EXPECT_TRUE((*cold)[0].closure_stored);
  size_t cold_phase1 = 0;
  for (const auto& r : (*cold)[0].result.stats.rounds) {
    if (r.phase == "phase1") ++cold_phase1;
  }
  EXPECT_GT(cold_phase1, 0u);

  auto warm = service.Execute(TcRequest("tc(X, d)"));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE((*warm)[0].closure_cache_hit);
  EXPECT_FALSE((*warm)[0].closure_stored);
  EXPECT_EQ((*warm)[0].tuples, (*cold)[0].tuples);
  // Phase 1 ran zero rounds: seen_1 was seeded from the cached closure.
  for (const auto& r : (*warm)[0].result.stats.rounds) {
    EXPECT_NE(r.phase, "phase1");
  }
}

TEST(QueryService, SelectionConstantsKeyTheClosure) {
  Database db;
  QueryService service(&db);
  ASSERT_TRUE(service.Execute(TcRequest("tc(a, X)")).ok());
  // Same shape, different constant: plan hits, closure misses.
  auto other = service.Execute(TcRequest("tc(b, X)"));
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE((*other)[0].plan_cache_hit);
  EXPECT_FALSE((*other)[0].closure_cache_hit);
  EXPECT_EQ((*other)[0].tuples,
            (std::vector<std::string>{"(b, c)", "(b, d)"}));
  // Different variable NAME is the same selection: closure hits.
  auto renamed = service.Execute(TcRequest("tc(a, Q)"));
  ASSERT_TRUE(renamed.ok());
  EXPECT_TRUE((*renamed)[0].closure_cache_hit);
}

TEST(QueryService, LoadMaintainsCachedClosure) {
  Database db;
  QueryService service(&db);
  auto before = service.Execute(TcRequest("tc(a, X)"));
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE((*before)[0].closure_stored);
  const uint64_t gen_before = (*before)[0].generation;

  std::istringstream rows("d\te\n");
  auto added = service.LoadTsv("edge", rows);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 1u);

  auto after = service.Execute(TcRequest("tc(a, X)"));
  ASSERT_TRUE(after.ok());
  // Plan survives (database-independent). The generation bumps, but the
  // cached closure survives it: tc(a, X) binds a persistent column, so
  // its phase-1 closure is data-independent (kConstant) and is re-keyed
  // onto the new generation instead of invalidated. The answer still
  // reflects the new tuple — phase 2 reads the mutated relations.
  EXPECT_TRUE((*after)[0].plan_cache_hit);
  EXPECT_TRUE((*after)[0].closure_cache_hit);
  EXPECT_GT((*after)[0].generation, gen_before);
  EXPECT_EQ((*after)[0].tuples,
            (std::vector<std::string>{"(a, b)", "(a, c)", "(a, d)",
                                      "(a, e)"}));
}

// Rules only: with the edge facts LOADED rather than in the program text,
// edge is a base relation and a moving-class closure is DRed-maintainable.
constexpr const char* kPureTcProgram =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";

ServiceRequest PureTcRequest(const std::string& query) {
  ServiceRequest req;
  req.program = kPureTcProgram;
  req.query = query;
  return req;
}

TEST(QueryService, NoOpLoadKeepsClosureAndGeneration) {
  // Regression: a load where every row is a duplicate must be a true
  // no-op — no generation bump, so every cached closure (even a
  // non-maintainable one) stays valid under its existing key.
  Database db;
  QueryService service(&db);
  std::istringstream seed("d\te\n");
  ASSERT_TRUE(service.LoadTsv("edge", seed).ok());
  auto before = service.Execute(TcRequest("tc(X, d)"));
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE((*before)[0].closure_stored);
  const uint64_t gen = (*before)[0].generation;

  std::istringstream dup("d\te\n");
  auto added = service.LoadTsv("edge", dup);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 0u);
  // Deleting a row that is not there is equally a no-op.
  std::istringstream miss("zz\tzz\n");
  auto removed = service.ApplyTsv("edge", BatchOp::kDelete, miss);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 0u);

  auto after = service.Execute(TcRequest("tc(X, d)"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)[0].generation, gen);
  EXPECT_TRUE((*after)[0].closure_cache_hit);
  EXPECT_EQ((*after)[0].tuples, (*before)[0].tuples);
}

TEST(QueryService, DeletePatchesMaintainableClosure) {
  Database db;
  QueryService service(&db);
  std::istringstream rows("a\tb\nb\tc\nc\td\n");
  ASSERT_TRUE(service.LoadTsv("edge", rows).ok());
  auto cold = service.Execute(PureTcRequest("tc(X, d)"));
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE((*cold)[0].closure_stored);
  EXPECT_EQ((*cold)[0].tuples,
            (std::vector<std::string>{"(a, d)", "(b, d)", "(c, d)"}));

  // Delete an EDB row the closure depends on: the cached phase-1 closure
  // is patched through DRed (overdelete + rederive), not thrown away.
  std::istringstream victims("a\tb\n");
  auto removed = service.ApplyTsv("edge", BatchOp::kDelete, victims);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);

  auto warm = service.Execute(PureTcRequest("tc(X, d)"));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE((*warm)[0].plan_cache_hit);
  EXPECT_TRUE((*warm)[0].closure_cache_hit);
  EXPECT_EQ((*warm)[0].tuples,
            (std::vector<std::string>{"(b, d)", "(c, d)"}));

  // Insert through the same path: the patched closure absorbs the new
  // tuple and the answer grows accordingly.
  std::istringstream fresh("x\tb\n");
  ASSERT_TRUE(service.ApplyTsv("edge", BatchOp::kInsert, fresh).ok());
  auto grown = service.Execute(PureTcRequest("tc(X, d)"));
  ASSERT_TRUE(grown.ok());
  EXPECT_TRUE((*grown)[0].closure_cache_hit);
  EXPECT_EQ((*grown)[0].tuples,
            (std::vector<std::string>{"(b, d)", "(c, d)", "(x, d)"}));

  ServiceStats stats = service.stats();
  EXPECT_GE(stats.closure_patches, 2u);
  EXPECT_EQ(stats.closure_drops, 0u);
  // Patched answers match a cold evaluation bit for bit.
  QueryService fresh_service(&db);
  auto reference = fresh_service.Execute(PureTcRequest("tc(X, d)"));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ((*grown)[0].tuples, (*reference)[0].tuples);
}

TEST(QueryService, OversizedDeltaFallsBackToInvalidation) {
  Database db;
  ServiceOptions options;
  options.max_incremental_delta = 1;
  QueryService service(&db, options);
  std::istringstream rows("a\tb\nb\tc\nc\td\n");
  ASSERT_TRUE(service.LoadTsv("edge", rows).ok());
  auto cold = service.Execute(PureTcRequest("tc(X, d)"));
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE((*cold)[0].closure_stored);
  // A delete exceeding max_incremental_delta drops maintainable entries
  // instead of patching them; the next query recomputes and is correct.
  std::istringstream victims("a\tb\nb\tc\n");
  auto removed = service.ApplyTsv("edge", BatchOp::kDelete, victims);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 2u);
  auto after = service.Execute(PureTcRequest("tc(X, d)"));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE((*after)[0].closure_cache_hit);
  EXPECT_EQ((*after)[0].tuples, (std::vector<std::string>{"(c, d)"}));
  EXPECT_GE(service.stats().closure_drops, 1u);
}

TEST(QueryService, NoCacheBypassesPlanAndClosureLayers) {
  Database db;
  QueryService service(&db);
  ASSERT_TRUE(service.Execute(TcRequest("tc(a, X)")).ok());
  ServiceRequest req = TcRequest("tc(a, X)");
  req.use_cache = false;
  auto out = service.Execute(req);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE((*out)[0].plan_cache_hit);
  EXPECT_FALSE((*out)[0].closure_cache_hit);
  EXPECT_FALSE((*out)[0].closure_stored);
}

TEST(QueryService, EmptyQueryRunsEveryQueryInProgram) {
  Database db;
  QueryService service(&db);
  ServiceRequest req;
  req.program = StrCat(kTcProgram, "?- tc(a, X).\n?- tc(b, X).\n");
  auto out = service.Execute(req);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0].query_text, "tc(a, X)");
  EXPECT_EQ((*out)[1].query_text, "tc(b, X)");
  // A program with no ?- line and no explicit query is an error.
  ServiceRequest bare;
  bare.program = kTcProgram;
  EXPECT_FALSE(service.Execute(bare).ok());
}

TEST(QueryService, ParseErrorFailsRequest) {
  Database db;
  QueryService service(&db);
  ServiceRequest req;
  req.program = "p(X :- q(X).";
  req.query = "p(X)";
  EXPECT_FALSE(service.Execute(req).ok());
}

TEST(QueryService, PerRequestLimitsIsolate) {
  Database db;
  QueryService service(&db);
  // A budget-starved request degrades (partial), and its incomplete
  // closure must NOT enter the cache.
  ServiceRequest starved = TcRequest("tc(X, d)");
  starved.limits.max_tuples = 1;
  auto partial = service.Execute(starved);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE((*partial)[0].result.partial);
  EXPECT_FALSE((*partial)[0].closure_stored);

  // The next (unlimited) request is unaffected by the starved one.
  auto full = service.Execute(TcRequest("tc(X, d)"));
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE((*full)[0].result.partial);
  EXPECT_FALSE((*full)[0].closure_cache_hit);
  EXPECT_TRUE((*full)[0].closure_stored);
  EXPECT_EQ((*full)[0].tuples,
            (std::vector<std::string>{"(a, d)", "(b, d)", "(c, d)"}));
}

TEST(QueryService, ZeroCapacityDisablesLayers) {
  Database db;
  ServiceOptions options;
  options.max_prepared = 0;
  options.max_closures = 0;
  QueryService service(&db, options);
  ASSERT_TRUE(service.Execute(TcRequest("tc(a, X)")).ok());
  auto out = service.Execute(TcRequest("tc(a, X)"));
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE((*out)[0].plan_cache_hit);
  EXPECT_FALSE((*out)[0].closure_stored);
  EXPECT_EQ(service.stats().plans, 0u);
  EXPECT_EQ(service.stats().closures, 0u);
}

TEST(QueryService, LruEvictsOldestPlan) {
  Database db;
  ServiceOptions options;
  options.max_prepared = 1;
  QueryService service(&db, options);
  ASSERT_TRUE(service.Execute(TcRequest("tc(a, X)")).ok());
  // A different shape displaces the only slot.
  ASSERT_TRUE(service.Execute(TcRequest("tc(X, d)")).ok());
  EXPECT_EQ(service.stats().plans, 1u);
  auto again = service.Execute(TcRequest("tc(a, X)"));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE((*again)[0].plan_cache_hit);
}

TEST(QueryService, PurgeDropsCachedArtifacts) {
  Database db;
  QueryService service(&db);
  ASSERT_TRUE(service.Execute(TcRequest("tc(a, X)")).ok());
  EXPECT_GT(service.stats().closures, 0u);
  service.PurgeClosures();
  EXPECT_EQ(service.stats().closures, 0u);
  EXPECT_GT(service.stats().plans, 0u);
  service.PurgeAll();
  EXPECT_EQ(service.stats().plans, 0u);
  EXPECT_EQ(service.stats().processors, 0u);
}

TEST(QueryService, ProcessorCacheIsLruNotFifo) {
  Database db;
  ServiceOptions options;
  options.max_processors = 2;
  QueryService service(&db, options);
  const std::string a = kTcProgram;
  const std::string b = StrCat(kTcProgram, "edge(p, q).\n");
  const std::string c = StrCat(kTcProgram, "edge(r, s).\n");
  // Runs `program` and reports its detection-pass cost: zero exactly when
  // the processor (and plan) came from cache.
  auto detections = [&](const std::string& program) -> uint64_t {
    ServiceRequest req;
    req.program = program;
    req.query = "tc(a, X)";
    auto out = service.Execute(req);
    EXPECT_TRUE(out.ok());
    return out.ok() ? (*out)[0].detection_passes : ~uint64_t{0};
  };
  EXPECT_GT(detections(a), 0u);  // miss: A analysed        cache {A}
  EXPECT_GT(detections(b), 0u);  // miss: B analysed        cache {A, B}
  EXPECT_EQ(detections(a), 0u);  // hit refreshes A's tick
  EXPECT_GT(detections(c), 0u);  // miss: evicts B (LRU)    cache {A, C}
  // Under FIFO this would evict A (the oldest insertion) instead, and the
  // continuously-hot program would pay a re-parse + detection pass here.
  EXPECT_EQ(detections(a), 0u);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.processor_hits, 2u);
  EXPECT_EQ(stats.processor_misses, 3u);
}

TEST(QueryService, UncachedAndEvictedPlansDropDuringConcurrentEvaluation) {
  // Regression for a release-order race: ~PlanEntry drops the compiled
  // schema's scratch relations from the Database, so the last reference
  // must be released under the database mutex. Uncached requests
  // ("cache":false) and a one-slot plan cache (constant eviction /
  // overwrite churn between two shapes) exercise every release path while
  // other sessions evaluate; TSan flags any drop outside the lock.
  Database db;
  ServiceOptions options;
  options.max_prepared = 1;
  QueryService service(&db, options);
  constexpr int kThreads = 8;
  constexpr int kIters = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int j = 0; j < kIters; ++j) {
        ServiceRequest req = TcRequest(i % 2 == 0 ? "tc(a, X)" : "tc(X, d)");
        req.use_cache = i % 4 < 2;
        auto out = service.Execute(req);
        if (!out.ok() || out->size() != 1 || (*out)[0].tuples.empty()) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(QueryService, ConcurrentSessionsBitIdentical) {
  Database db;
  QueryService service(&db);
  constexpr int kThreads = 8;
  // The expected answers, computed sequentially first.
  auto expect_ax = service.Execute(TcRequest("tc(a, X)"));
  auto expect_xd = service.Execute(TcRequest("tc(X, d)"));
  ASSERT_TRUE(expect_ax.ok());
  ASSERT_TRUE(expect_xd.ok());
  service.PurgeAll();

  std::vector<std::vector<std::string>> got(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Half the sessions run one query, half the other, so cache fills
      // race with probes across distinct keys as well as identical ones.
      const bool ax = i % 2 == 0;
      auto out = service.Execute(TcRequest(ax ? "tc(a, X)" : "tc(X, d)"));
      if (!out.ok() || out->size() != 1) {
        ++failures;
        return;
      }
      got[i] = (*out)[0].tuples;
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (int i = 0; i < kThreads; ++i) {
    const auto& want =
        i % 2 == 0 ? (*expect_ax)[0].tuples : (*expect_xd)[0].tuples;
    EXPECT_EQ(got[i], want) << "session " << i;
  }
  EXPECT_EQ(service.stats().requests, 2u + kThreads);
}

// ---- SocketServer ----------------------------------------------------------

class SocketClient {
 public:
  explicit SocketClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~SocketClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void Send(const std::string& line) { SendRaw(line + "\n"); }

  // Sends bytes as-is, without the '\n' framing.
  void SendRaw(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  // True when the server has closed the connection (clean EOF).
  bool ReadEof() {
    char c;
    return ::recv(fd_, &c, 1, 0) == 0;
  }

  // Reads one '\n'-terminated line, without the '\n', as sent.
  std::string ReadRawLine() {
    while (true) {
      auto pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return line;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed mid-read";
        return "";
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  // Reads one '\n'-terminated JSON line.
  json::Value ReadLine() {
    std::string line = ReadRawLine();
    auto v = json::Parse(line);
    EXPECT_TRUE(v.ok()) << line;
    return v.ok() ? *std::move(v) : json::Value();
  }

  // Reads until a "done" or "error" event, returning every line.
  std::vector<json::Value> ReadToDone() {
    std::vector<json::Value> lines;
    while (true) {
      lines.push_back(ReadLine());
      const std::string& ev = lines.back().Get("ev").as_string();
      if (ev == "done" || ev == "error" || ev.empty()) return lines;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

class SocketServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = StrCat(::testing::TempDir(), "/seprec_srv_",
                          static_cast<unsigned long>(::getpid()), ".s");
    service_ = std::make_unique<QueryService>(&db_);
    server_ = std::make_unique<SocketServer>(service_.get());
    ASSERT_TRUE(server_->Start(socket_path_).ok());
  }
  void TearDown() override { server_->Stop(); }

  Database db_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<SocketServer> server_;
  std::string socket_path_;
};

TEST_F(SocketServerTest, PingAndStats) {
  SocketClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  client.Send(R"({"op":"ping","id":7})");
  json::Value pong = client.ReadLine();
  EXPECT_EQ(pong.Get("id").as_int(), 7);
  EXPECT_TRUE(pong.Get("ok").as_bool());

  client.Send(R"({"op":"stats","id":8})");
  json::Value stats = client.ReadLine();
  EXPECT_EQ(stats.Get("id").as_int(), 8);
  EXPECT_TRUE(stats.Get("stats").Has("requests"));
}

TEST_F(SocketServerTest, QueryStreamsResults) {
  SocketClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  json::Object req;
  req["op"] = json::Value("query");
  req["id"] = json::Value(int64_t{1});
  req["program"] = json::Value(std::string(kTcProgram));
  req["query"] = json::Value("tc(a, X)");
  client.Send(json::Serialize(json::Value(req)));

  std::vector<json::Value> lines = client.ReadToDone();
  ASSERT_GE(lines.size(), 6u);  // begin, 3 results, answer, done
  EXPECT_EQ(lines[0].Get("ev").as_string(), "begin");
  EXPECT_EQ(lines[0].Get("query").as_string(), "tc(a, X)");
  std::vector<std::string> tuples;
  for (const auto& line : lines) {
    if (line.Get("ev").as_string() == "result") {
      tuples.push_back(line.Get("tuple").as_string());
    }
  }
  EXPECT_EQ(tuples,
            (std::vector<std::string>{"(a, b)", "(a, c)", "(a, d)"}));
  const json::Value& answer = lines[lines.size() - 2];
  EXPECT_EQ(answer.Get("ev").as_string(), "answer");
  EXPECT_EQ(answer.Get("answers").as_int(), 3);
  EXPECT_EQ(answer.Get("strategy").as_string(), "separable");
  EXPECT_FALSE(answer.Get("partial").as_bool());
  EXPECT_EQ(lines.back().Get("ev").as_string(), "done");
  EXPECT_TRUE(lines.back().Get("ok").as_bool());
}

TEST_F(SocketServerTest, StrategyNamesParseLikeTheCli) {
  SocketClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  json::Object req;
  req["op"] = json::Value("query");
  req["id"] = json::Value(int64_t{1});
  req["program"] = json::Value(std::string(kTcProgram));
  req["query"] = json::Value("tc(a, X)");
  req["strategy"] = json::Value("bogus");
  client.Send(json::Serialize(json::Value(req)));
  json::Value error = client.ReadLine();
  EXPECT_EQ(error.Get("ev").as_string(), "error");
  EXPECT_EQ(error.Get("message").as_string(), "unknown strategy 'bogus'");

  // An empty name means auto, like a missing one; a known name is used.
  for (const char* name : {"", "magic"}) {
    req["id"] = json::Value(int64_t{2});
    req["strategy"] = json::Value(name);
    client.Send(json::Serialize(json::Value(req)));
    std::vector<json::Value> lines = client.ReadToDone();
    ASSERT_TRUE(lines.back().Get("ok").as_bool()) << name;
    EXPECT_EQ(lines[lines.size() - 2].Get("strategy").as_string(),
              *name == '\0' ? "separable" : name);
  }
}

TEST_F(SocketServerTest, LoadBumpsGenerationAndQueriesSeeIt) {
  SocketClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  client.Send(
      R"({"op":"load","id":1,"relation":"edge","rows":[["d","e"]]})");
  json::Value loaded = client.ReadLine();
  EXPECT_TRUE(loaded.Get("ok").as_bool());
  EXPECT_EQ(loaded.Get("added").as_int(), 1);
  EXPECT_GE(loaded.Get("generation").as_int(), 1);

  json::Object req;
  req["op"] = json::Value("query");
  req["id"] = json::Value(int64_t{2});
  req["program"] = json::Value(std::string(kTcProgram));
  req["query"] = json::Value("tc(d, X)");
  client.Send(json::Serialize(json::Value(req)));
  std::vector<json::Value> lines = client.ReadToDone();
  const json::Value& answer = lines[lines.size() - 2];
  EXPECT_EQ(answer.Get("answers").as_int(), 1);  // (d, e) via the load
}

TEST_F(SocketServerTest, MalformedMiddleRowFailsLoadWithoutPartialApply) {
  SocketClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  // Row 2 has one column where rows 1 and 3 have two: the load must fail
  // with a structured, line-numbered error and apply NOTHING — a partial
  // prefix would be silent corruption.
  client.Send(
      R"({"op":"load","id":1,"relation":"m",)"
      R"("rows":[["a","b"],["c"],["d","e"]]})");
  json::Value error = client.ReadLine();
  EXPECT_EQ(error.Get("ev").as_string(), "error");
  EXPECT_EQ(error.Get("code").as_string(), "INVALID_ARGUMENT");
  EXPECT_NE(error.Get("message").as_string().find("line 2"),
            std::string::npos)
      << error.Get("message").as_string();
  // Nothing was applied: the relation does not exist and the generation
  // did not move.
  EXPECT_EQ(db_.Find("m"), nullptr);
  EXPECT_EQ(db_.generation(), 0u);
}

TEST(SocketServerDurability, InlineRowsATsvLineCannotCarryApplyNothing) {
  const std::string dir =
      StrCat(::testing::TempDir(), "/seprec_srv_rows_",
             static_cast<unsigned long>(::getpid()));
  std::filesystem::remove_all(dir);
  const std::string socket_path = dir + ".sock";
  {
    Database db;
    DurabilityOptions durability;
    durability.fsync = FsyncPolicy::kOff;
    auto storage = DurableStorage::Open(dir, &db, durability, nullptr);
    ASSERT_TRUE(storage.ok()) << storage.status().ToString();
    ServiceOptions options;
    options.storage = storage->get();
    QueryService service(&db, options);
    SocketServer server(&service);
    ASSERT_TRUE(server.Start(socket_path).ok());
    SocketClient client(socket_path);
    ASSERT_TRUE(client.connected());

    // String cells are typed as TSV columns are: "42" is the integer 42.
    client.Send(
        R"({"op":"load","id":1,"relation":"p","rows":[["42",7],["a","b"]]})");
    ASSERT_TRUE(client.ReadLine().Get("ok").as_bool());
    const Value int_row[] = {Value::Int(42), Value::Int(7)};
    EXPECT_TRUE(db.Find("p")->Contains(Row(int_row, 2)));
    const uint64_t generation = db.generation();
    const uint64_t wal_bytes = (*storage)->wal_bytes();

    // Rows no TSV line can carry, and cells of other types. Spliced into
    // TSV text, each would have been altered, split or dropped.
    struct Case {
      const char* rows;
      const char* where;  // the row and column the error must name
    };
    const Case cases[] = {
        {R"([["x\ty"]])", "line 1, column 1"},       // TSV reads (x, y)
        {R"([["p","q\nr\ts"]])", "line 1, column 2"},  // (p, q) and (r, s)
        {R"([["#c","d"]])", "line 1, column 1"},     // a TSV comment
        {R"([[null,true]])", "line 1, column 1"},    // not a string or int
        {R"([[1.9,"z"]])", "line 1, column 1"},      // not an integer
        {R"(["oops"])", "line 1:"},                  // not an array
        {R"([[]])", "line 1:"},
        {R"([[""]])", "line 1, column 1"},  // an empty TSV line
        {R"([["a","b"],["c",2.5]])", "line 2, column 2"},
        {R"([["99999999999999999999","x"]])", "line 1, column 1"},
        {R"([[2305843009213693952,"x"]])", "line 1, column 1"},
        {R"([])", "'rows' is empty"},
    };
    int64_t id = 2;
    for (const Case& c : cases) {
      client.Send(StrCat(R"({"op":"load","id":)", id++,
                         R"(,"relation":"p","rows":)", c.rows, "}"));
      json::Value error = client.ReadLine();
      EXPECT_EQ(error.Get("ev").as_string(), "error") << c.rows;
      EXPECT_EQ(error.Get("code").as_string(), "INVALID_ARGUMENT") << c.rows;
      EXPECT_NE(error.Get("message").as_string().find(c.where),
                std::string::npos)
          << c.rows << ": " << error.Get("message").as_string();
      // Nothing applied: no row, no generation bump, no WAL record.
      EXPECT_EQ(db.Find("p")->size(), 2u) << c.rows;
      EXPECT_EQ(db.generation(), generation) << c.rows;
      EXPECT_EQ((*storage)->wal_bytes(), wal_bytes) << c.rows;
    }
    server.Stop();
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove(socket_path);
}

// WAL records and snapshot footers store a relation name's length in a
// u16. A longer name must be refused before it is logged or created:
// logged, it would fail every replay; created, every checkpoint.
TEST(SocketServerDurability, OversizedNamesAreRefusedAndTheDirRecovers) {
  const std::string dir =
      StrCat(::testing::TempDir(), "/seprec_srv_names_",
             static_cast<unsigned long>(::getpid()));
  std::filesystem::remove_all(dir);
  const std::string socket_path = dir + ".sock";
  const std::string long_name(70000, 'r');
  {
    Database db;
    DurabilityOptions durability;
    durability.fsync = FsyncPolicy::kOff;
    auto storage = DurableStorage::Open(dir, &db, durability, nullptr);
    ASSERT_TRUE(storage.ok()) << storage.status().ToString();
    ServiceOptions options;
    options.storage = storage->get();
    QueryService service(&db, options);
    SocketServer server(&service);
    ASSERT_TRUE(server.Start(socket_path).ok());
    SocketClient client(socket_path);
    ASSERT_TRUE(client.connected());

    client.Send(
        R"({"op":"load","id":1,"relation":"edge","rows":[["a","b"]]})");
    ASSERT_TRUE(client.ReadLine().Get("ok").as_bool());
    const uint64_t generation = db.generation();
    const uint64_t wal_bytes = (*storage)->wal_bytes();
    const std::vector<std::string> names = db.RelationNames();

    json::Object load;
    load["op"] = json::Value("load");
    load["id"] = json::Value(int64_t{2});
    load["relation"] = json::Value(long_name);
    load["rows"] = json::Value(json::Array{
        json::Value(json::Array{json::Value("a"), json::Value("b")})});
    client.Send(json::Serialize(json::Value(load)));
    json::Value load_error = client.ReadLine();
    EXPECT_EQ(load_error.Get("ev").as_string(), "error");
    EXPECT_EQ(load_error.Get("code").as_string(), "INVALID_ARGUMENT");
    EXPECT_EQ((*storage)->wal_bytes(), wal_bytes);
    EXPECT_EQ(db.generation(), generation);
    EXPECT_EQ(db.RelationNames(), names);

    // A read-only query creates its IDB predicates' relations.
    json::Object query;
    query["op"] = json::Value("query");
    query["id"] = json::Value(int64_t{3});
    query["program"] =
        json::Value(StrCat(long_name, "(X, Y) :- edge(X, Y).\n"));
    query["query"] = json::Value(StrCat(long_name, "(a, Y)"));
    client.Send(json::Serialize(json::Value(query)));
    std::vector<json::Value> lines = client.ReadToDone();
    EXPECT_EQ(lines.back().Get("ev").as_string(), "error");
    EXPECT_EQ(lines.back().Get("code").as_string(), "INVALID_ARGUMENT");
    EXPECT_EQ((*storage)->wal_bytes(), wal_bytes);
    EXPECT_EQ(db.generation(), generation);
    EXPECT_EQ(db.RelationNames(), names);

    client.Send(R"({"op":"checkpoint","id":4})");
    EXPECT_TRUE(client.ReadLine().Get("ok").as_bool());
    server.Stop();
  }
  Database restored;
  DurabilityOptions durability;
  durability.fsync = FsyncPolicy::kOff;
  auto storage = DurableStorage::Open(dir, &restored, durability, nullptr);
  ASSERT_TRUE(storage.ok()) << storage.status().ToString();
  ASSERT_EQ(restored.RelationNames(), std::vector<std::string>{"edge"});
  EXPECT_EQ(restored.Find("edge")->size(), 1u);
  storage->reset();
  std::filesystem::remove_all(dir);
  std::filesystem::remove(socket_path);
}

TEST_F(SocketServerTest, DeleteModeRemovesRowsAndReportsChanged) {
  SocketClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  client.Send(
      R"({"op":"load","id":1,"relation":"edge","rows":[["a","b"],["b","c"]]})");
  EXPECT_TRUE(client.ReadLine().Get("ok").as_bool());

  // Delete one present row and one miss: "changed" counts the effective
  // delta; "added" repeats it for protocol back-compat.
  client.Send(R"({"op":"load","id":2,"relation":"edge","mode":"delete",)"
              R"("rows":[["a","b"],["zz","zz"]]})");
  json::Value deleted = client.ReadLine();
  EXPECT_TRUE(deleted.Get("ok").as_bool());
  EXPECT_EQ(deleted.Get("changed").as_int(), 1);
  EXPECT_EQ(deleted.Get("added").as_int(), 1);
  EXPECT_EQ(db_.Find("edge")->size(), 1u);

  // An unknown mode is a structured error, not a silent insert.
  client.Send(R"({"op":"load","id":3,"relation":"edge","mode":"upsert",)"
              R"("rows":[["x","y"]]})");
  json::Value error = client.ReadLine();
  EXPECT_EQ(error.Get("ev").as_string(), "error");
  EXPECT_EQ(error.Get("code").as_string(), "INVALID_ARGUMENT");
  EXPECT_EQ(db_.Find("edge")->size(), 1u);
}

TEST_F(SocketServerTest, SubscribeStreamsDeltasAcrossConnections) {
  SocketClient sub(socket_path_);
  SocketClient loader(socket_path_);
  ASSERT_TRUE(sub.connected());
  ASSERT_TRUE(loader.connected());
  loader.Send(
      R"({"op":"load","id":1,"relation":"edge","rows":[["a","b"],["b","c"]]})");
  EXPECT_TRUE(loader.ReadLine().Get("ok").as_bool());

  json::Object req;
  req["op"] = json::Value("subscribe");
  req["id"] = json::Value(int64_t{2});
  req["program"] = json::Value(std::string(kPureTcProgram));
  req["query"] = json::Value("tc(a, X)");
  sub.Send(json::Serialize(json::Value(req)));
  json::Value ack = sub.ReadLine();
  ASSERT_TRUE(ack.Get("ok").as_bool());
  EXPECT_EQ(ack.Get("answers").as_int(), 2);  // (a,b), (a,c) baseline
  const int64_t sid = ack.Get("subscription").as_int();
  EXPECT_GT(sid, 0);

  // An insert on ANOTHER connection pushes the newly derived tuple.
  loader.Send(
      R"({"op":"load","id":3,"relation":"edge","rows":[["c","d"]]})");
  EXPECT_TRUE(loader.ReadLine().Get("ok").as_bool());
  json::Value delta = sub.ReadLine();
  EXPECT_EQ(delta.Get("ev").as_string(), "delta");
  EXPECT_EQ(delta.Get("subscription").as_int(), sid);
  ASSERT_EQ(delta.Get("tuples").as_array().size(), 1u);
  EXPECT_EQ(delta.Get("tuples").as_array()[0].as_string(), "(a, d)");
  EXPECT_TRUE(delta.Get("retracted").as_array().empty());

  // A delete retracts everything the lost edge carried.
  loader.Send(R"({"op":"load","id":4,"relation":"edge","mode":"delete",)"
              R"("rows":[["b","c"]]})");
  EXPECT_TRUE(loader.ReadLine().Get("ok").as_bool());
  delta = sub.ReadLine();
  EXPECT_EQ(delta.Get("ev").as_string(), "delta");
  EXPECT_TRUE(delta.Get("tuples").as_array().empty());
  ASSERT_EQ(delta.Get("retracted").as_array().size(), 2u);
  EXPECT_EQ(delta.Get("retracted").as_array()[0].as_string(), "(a, c)");
  EXPECT_EQ(delta.Get("retracted").as_array()[1].as_string(), "(a, d)");

  // A no-op mutation (duplicate insert) pushes nothing: the next line the
  // subscriber reads is its own unsubscribe ack, not a delta. Another
  // connection cannot remove the subscription first.
  loader.Send(
      R"({"op":"load","id":5,"relation":"edge","rows":[["a","b"]]})");
  EXPECT_TRUE(loader.ReadLine().Get("ok").as_bool());
  loader.Send(StrCat(R"({"op":"unsubscribe","id":6,"subscription":)", sid,
                     "}"));
  json::Value stolen = loader.ReadLine();
  EXPECT_TRUE(stolen.Get("ok").as_bool());
  EXPECT_FALSE(stolen.Get("removed").as_bool());
  sub.Send(StrCat(R"({"op":"unsubscribe","id":7,"subscription":)", sid,
                  "}"));
  json::Value bye = sub.ReadLine();
  EXPECT_EQ(bye.Get("ev").as_string(), "done");
  EXPECT_TRUE(bye.Get("removed").as_bool());
}

TEST_F(SocketServerTest, SubscriptionTrippingItsBudgetIsDropped) {
  SocketClient sub(socket_path_);
  SocketClient loader(socket_path_);
  ASSERT_TRUE(sub.connected());
  ASSERT_TRUE(loader.connected());
  loader.Send(
      R"({"op":"load","id":1,"relation":"edge","rows":[["a","b"],["b","c"]]})");
  EXPECT_TRUE(loader.ReadLine().Get("ok").as_bool());

  // The subscription's own limits (the tuple budget counts DERIVED
  // tuples, not answers) cover the baseline evaluation but not the
  // re-evaluation after the graph grows; a partial push would be a silent
  // lie — the subscription is dropped instead.
  json::Object req;
  req["op"] = json::Value("subscribe");
  req["id"] = json::Value(int64_t{2});
  req["program"] = json::Value(std::string(kPureTcProgram));
  req["query"] = json::Value("tc(a, X)");
  json::Object limits;
  limits["max_tuples"] = json::Value(int64_t{4});
  req["limits"] = json::Value(limits);
  sub.Send(json::Serialize(json::Value(req)));
  json::Value ack = sub.ReadLine();
  ASSERT_TRUE(ack.Get("ok").as_bool());
  const int64_t sid = ack.Get("subscription").as_int();

  loader.Send(R"({"op":"load","id":3,"relation":"edge",)"
              R"("rows":[["c","d"],["d","e"],["e","f"],["f","g"]]})");
  EXPECT_TRUE(loader.ReadLine().Get("ok").as_bool());
  json::Value dropped = sub.ReadLine();
  EXPECT_EQ(dropped.Get("ev").as_string(), "dropped");
  EXPECT_EQ(dropped.Get("subscription").as_int(), sid);
  EXPECT_NE(dropped.Get("reason").as_string().find("budget"),
            std::string::npos)
      << dropped.Get("reason").as_string();
}

TEST_F(SocketServerTest, CheckpointWithoutDataDirIsFailedPrecondition) {
  SocketClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  client.Send(R"({"op":"checkpoint","id":9})");
  json::Value error = client.ReadLine();
  EXPECT_EQ(error.Get("ev").as_string(), "error");
  EXPECT_EQ(error.Get("code").as_string(), "FAILED_PRECONDITION");
  EXPECT_NE(error.Get("message").as_string().find("--data-dir"),
            std::string::npos)
      << error.Get("message").as_string();
}

TEST(SocketServerDurability, LoadsAreLoggedAndCheckpointOpSnapshots) {
  const std::string dir =
      StrCat(::testing::TempDir(), "/seprec_srv_durable_",
             static_cast<unsigned long>(::getpid()));
  std::filesystem::remove_all(dir);
  const std::string socket_path = dir + ".sock";
  uint64_t generation_after = 0;
  {
    Database db;
    DurabilityOptions durability;
    durability.fsync = FsyncPolicy::kOff;
    auto storage = DurableStorage::Open(dir, &db, durability, nullptr);
    ASSERT_TRUE(storage.ok()) << storage.status().ToString();
    ServiceOptions options;
    options.storage = storage->get();
    QueryService service(&db, options);
    SocketServer server(&service);
    ASSERT_TRUE(server.Start(socket_path).ok());

    SocketClient client(socket_path);
    ASSERT_TRUE(client.connected());
    client.Send(
        R"({"op":"load","id":1,"relation":"edge","rows":[["a","b"]]})");
    EXPECT_TRUE(client.ReadLine().Get("ok").as_bool());
    EXPECT_GT((*storage)->wal_bytes(), 0u);  // the load was logged

    client.Send(R"({"op":"checkpoint","id":2})");
    json::Value done = client.ReadLine();
    EXPECT_TRUE(done.Get("ok").as_bool());
    EXPECT_EQ(done.Get("snapshot").as_string(), "snapshot-2.seprec");
    EXPECT_GT(done.Get("wal_bytes_truncated").as_int(), 0);
    EXPECT_EQ((*storage)->wal_bytes(), 0u);

    client.Send(
        R"({"op":"load","id":3,"relation":"edge","rows":[["b","c"]]})");
    EXPECT_TRUE(client.ReadLine().Get("ok").as_bool());
    generation_after = db.generation();
    server.Stop();
  }
  // Recovery sees the snapshot plus the post-checkpoint WAL record.
  Database restored;
  RecoveryReport report;
  DurabilityOptions durability;
  durability.fsync = FsyncPolicy::kOff;
  auto storage = DurableStorage::Open(dir, &restored, durability, &report);
  ASSERT_TRUE(storage.ok()) << storage.status().ToString();
  EXPECT_EQ(report.snapshot_file, "snapshot-2.seprec");
  EXPECT_EQ(report.wal_records_replayed, 1u);
  ASSERT_NE(restored.Find("edge"), nullptr);
  EXPECT_EQ(restored.Find("edge")->size(), 2u);
  EXPECT_EQ(restored.generation(), generation_after);
  storage->reset();
  std::filesystem::remove_all(dir);
  std::filesystem::remove(socket_path);
}

TEST_F(SocketServerTest, MalformedAndUnknownRequestsAnswerErrors) {
  SocketClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  client.Send("this is not json");
  json::Value err = client.ReadLine();
  EXPECT_EQ(err.Get("ev").as_string(), "error");
  EXPECT_EQ(err.Get("id").as_int(), -1);

  // The connection survives an error: the next request still works.
  client.Send(R"({"op":"no-such-op","id":3})");
  json::Value unknown = client.ReadLine();
  EXPECT_EQ(unknown.Get("ev").as_string(), "error");
  EXPECT_EQ(unknown.Get("id").as_int(), 3);
  client.Send(R"({"op":"ping","id":4})");
  EXPECT_TRUE(client.ReadLine().Get("ok").as_bool());
}

TEST_F(SocketServerTest, ConcurrentSocketSessionsBitIdentical) {
  constexpr int kSessions = 8;
  json::Object req;
  req["op"] = json::Value("query");
  req["id"] = json::Value(int64_t{1});
  req["program"] = json::Value(std::string(kTcProgram));
  req["query"] = json::Value("tc(a, X)");
  const std::string request = json::Serialize(json::Value(req));

  std::vector<std::string> transcripts(kSessions);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      SocketClient client(socket_path_);
      if (!client.connected()) {
        ++failures;
        return;
      }
      client.Send(request);
      std::string rendered;
      for (const json::Value& line : client.ReadToDone()) {
        const std::string& ev = line.Get("ev").as_string();
        if (ev == "result") {
          rendered += line.Get("tuple").as_string() + "\n";
        } else if (ev == "answer") {
          rendered += StrCat("answers=", line.Get("answers").as_int(),
                             " via ", line.Get("strategy").as_string(),
                             "\n");
        } else if (ev == "error") {
          ++failures;
        }
      }
      transcripts[i] = rendered;
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (int i = 1; i < kSessions; ++i) {
    EXPECT_EQ(transcripts[i], transcripts[0]) << "session " << i;
  }
  EXPECT_EQ(transcripts[0],
            "(a, b)\n(a, c)\n(a, d)\nanswers=3 via separable\n");
}

TEST(SocketServerLimits, OverlongLineAnswersErrorAndDisconnects) {
  Database db;
  QueryService service(&db);
  SocketServer server(&service);
  server.set_max_line_bytes(1024);
  const std::string path =
      StrCat(::testing::TempDir(), "/seprec_cap_",
             static_cast<unsigned long>(::getpid()), ".s");
  ASSERT_TRUE(server.Start(path).ok());
  {
    SocketClient client(path);
    ASSERT_TRUE(client.connected());
    // 4 KiB with no '\n': over the cap before any line completes. The
    // server must answer with an error and close, not buffer forever.
    client.SendRaw(std::string(4096, 'x'));
    json::Value err = client.ReadLine();
    EXPECT_EQ(err.Get("ev").as_string(), "error");
    EXPECT_EQ(err.Get("code").as_string(), "RESOURCE_EXHAUSTED");
    EXPECT_TRUE(client.ReadEof());
  }
  // A well-behaved client under the cap is unaffected.
  SocketClient ok_client(path);
  ASSERT_TRUE(ok_client.connected());
  ok_client.Send(R"({"op":"ping","id":1})");
  EXPECT_TRUE(ok_client.ReadLine().Get("ok").as_bool());
  server.Stop();
}

// Loads `n` rows (a, node_00000) ... (a, node_<n-1>) into `relation`
// through the service, so no socket reply precedes the test's own.
void LoadFanOut(QueryService* service, const std::string& relation,
                int n) {
  TupleBatch batch;
  batch.relation = relation;
  batch.arity = 2;
  char name[32];
  for (int i = 0; i < n; ++i) {
    std::snprintf(name, sizeof(name), "node_%05d", i);
    batch.rows.push_back({TypedCell::Symbol("a"), TypedCell::Symbol(name)});
  }
  ASSERT_TRUE(service->Apply(batch).ok());
}

std::string QueryLine(int64_t id, const std::string& program,
                      const std::string& query) {
  json::Object req;
  req["op"] = json::Value("query");
  req["id"] = json::Value(id);
  req["program"] = json::Value(program);
  req["query"] = json::Value(query);
  return json::Serialize(json::Value(req));
}

constexpr const char* kFanOutProgram = "r(X, Y) :- big(X, Y).\n";

TEST_F(SocketServerTest, LargeReplyArrivesWholeInFewBatches) {
  LoadFanOut(service_.get(), "big", 5000);
  ServiceRequest request;
  request.program = kFanOutProgram;
  request.query = "r(a, Y)";
  auto expected = service_->Execute(request);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ((*expected)[0].tuples.size(), 5000u);

  SocketClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  client.Send(QueryLine(1, kFanOutProgram, "r(a, Y)"));
  std::vector<std::string> tuples;
  int64_t answers = -1;
  while (true) {
    json::Value line = client.ReadLine();  // fails the test unless it parses
    const std::string& ev = line.Get("ev").as_string();
    if (ev == "result") tuples.push_back(line.Get("tuple").as_string());
    if (ev == "answer") answers = line.Get("answers").as_int();
    if (ev == "done" || ev == "error" || ev.empty()) {
      EXPECT_EQ(ev, "done");
      break;
    }
  }
  EXPECT_EQ(tuples, (*expected)[0].tuples);
  EXPECT_EQ(answers, 5000);

  // Count guard: the reply went out in whole 64 KiB batches, not one
  // write per line. Only the query's reply precedes this stats request.
  client.Send(R"({"op":"stats","id":2})");
  json::Value stats = client.ReadLine().Get("stats");
  const int64_t writes = stats.Get("reply_writes").as_int();
  const int64_t bytes = stats.Get("reply_bytes").as_int();
  constexpr int64_t kBatch = 64 << 10;
  EXPECT_GT(bytes, 200 << 10);
  EXPECT_GE(writes, (bytes + kBatch - 1) / kBatch);
  EXPECT_LE(writes, (bytes + kBatch - 1) / kBatch + 1);
}

TEST_F(SocketServerTest, ResultLinesAreByteIdenticalToSerialize) {
  // Symbols holding every byte class JSON escapes differently.
  TupleBatch batch;
  batch.relation = "odd";
  batch.arity = 2;
  for (const char* y : {"q\"uote", "back\\slash", "tab\there", "nl\nx",
                        "ctl\x01\x1f", "utf8 \xc3\xa9 \xf0\x9f\x98\x80"}) {
    batch.rows.push_back({TypedCell::Symbol("k"), TypedCell::Symbol(y)});
  }
  ASSERT_TRUE(service_->Apply(batch).ok());
  ServiceRequest request;
  request.program = "r(X, Y) :- odd(X, Y).\n";
  request.query = "r(k, Y)";
  auto expected = service_->Execute(request);
  ASSERT_TRUE(expected.ok());
  const std::vector<std::string>& tuples = (*expected)[0].tuples;
  ASSERT_EQ(tuples.size(), batch.rows.size());

  SocketClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  for (int64_t id : {int64_t{-1}, int64_t{0}, (int64_t{1} << 32) + 7}) {
    client.Send(QueryLine(id, request.program, request.query));
    EXPECT_EQ(client.ReadLine().Get("ev").as_string(), "begin");
    // Each line arrived '\n'-terminated; its bytes before the '\n' must be
    // exactly Serialize's.
    for (const std::string& tuple : tuples) {
      json::Object want;
      want["ev"] = json::Value("result");
      want["id"] = json::Value(id);
      want["tuple"] = json::Value(tuple);
      EXPECT_EQ(client.ReadRawLine(), json::Serialize(json::Value(want)))
          << "id " << id;
    }
    EXPECT_EQ(client.ReadLine().Get("ev").as_string(), "answer");
    EXPECT_EQ(client.ReadLine().Get("ev").as_string(), "done");
  }
}

TEST(SocketServerReply, ClientClosingMidReplyLeavesServerAlive) {
  Database db;
  CollectingTraceSink sink;
  ServiceOptions options;
  options.trace = &sink;
  QueryService service(&db, options);
  SocketServer server(&service);
  const std::string path =
      StrCat(::testing::TempDir(), "/seprec_hangup_",
             static_cast<unsigned long>(::getpid()), ".s");
  ASSERT_TRUE(server.Start(path).ok());
  // ~1 MB of reply: more than the socket buffers hold, so the server is
  // still writing when the client goes away.
  LoadFanOut(&service, "big", 20000);
  auto closed_sessions = [&] {
    size_t n = 0;
    for (const TraceEvent& ev : sink.Events()) {
      n += ev.kind == TraceEventKind::kSession && ev.cause == "close";
    }
    return n;
  };
  {
    SocketClient client(path);
    ASSERT_TRUE(client.connected());
    client.Send(QueryLine(1, kFanOutProgram, "r(a, Y)"));
    EXPECT_EQ(client.ReadLine().Get("ev").as_string(), "begin");
  }  // hangs up mid-reply; a SIGPIPE would end this test binary here
  for (int i = 0; i < 1000 && closed_sessions() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(closed_sessions(), 1u);  // that session exited
  SocketClient other(path);
  ASSERT_TRUE(other.connected());
  other.Send(R"({"op":"ping","id":2})");
  EXPECT_TRUE(other.ReadLine().Get("ok").as_bool());
  server.Stop();
}

TEST_F(SocketServerTest, PushDuringLargeReplyLandsBetweenLines) {
  LoadFanOut(service_.get(), "big", 20000);
  std::istringstream seed("a\tb\n");
  ASSERT_TRUE(service_->LoadTsv("e2", seed).ok());
  ServiceRequest request;
  request.program = kFanOutProgram;
  request.query = "r(a, Y)";
  auto expected = service_->Execute(request);
  ASSERT_TRUE(expected.ok());

  SocketClient reader(socket_path_);
  SocketClient loader(socket_path_);
  ASSERT_TRUE(reader.connected());
  ASSERT_TRUE(loader.connected());
  json::Object subscribe;
  subscribe["op"] = json::Value("subscribe");
  subscribe["id"] = json::Value(int64_t{1});
  subscribe["program"] = json::Value("s(X, Y) :- e2(X, Y).\n");
  subscribe["query"] = json::Value("s(a, Y)");
  reader.Send(json::Serialize(json::Value(subscribe)));
  ASSERT_TRUE(reader.ReadLine().Get("ok").as_bool());

  // The reader stops after the first line of a ~1 MB reply, so the
  // server is blocked mid-reply when the loader's mutation pushes a delta
  // to the same connection; the pause lets the push queue behind it.
  reader.Send(QueryLine(2, kFanOutProgram, "r(a, Y)"));
  EXPECT_EQ(reader.ReadLine().Get("ev").as_string(), "begin");
  loader.Send(R"({"op":"load","id":3,"relation":"e2","rows":[["a","z"]]})");
  EXPECT_TRUE(loader.ReadLine().Get("ok").as_bool());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::vector<std::string> tuples;
  std::vector<std::string> delta;
  bool done = false;
  while (!done || delta.empty()) {
    json::Value line = reader.ReadLine();  // fails the test unless it parses
    const std::string& ev = line.Get("ev").as_string();
    if (ev == "result") tuples.push_back(line.Get("tuple").as_string());
    if (ev == "delta") {
      for (const json::Value& t : line.Get("tuples").as_array()) {
        delta.push_back(t.as_string());
      }
    }
    if (ev == "done") done = true;
    if (ev == "error" || ev.empty()) break;
  }
  EXPECT_EQ(tuples, (*expected)[0].tuples);
  EXPECT_EQ(delta, (std::vector<std::string>{"(a, z)"}));
}

TEST_F(SocketServerTest, SplitAndCoalescedRequestLinesParseAsBefore) {
  SocketClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  // A 100 KiB request line spans many 4 KiB recv() calls; its tail then
  // shares one send with an empty line, a malformed line, two complete
  // requests and the head of a fourth.
  const std::string long_line =
      StrCat(R"({"op":"ping","id":1,"pad":")", std::string(100 << 10, 'x'),
             "\"}\n");
  const size_t head = long_line.size() - 10;
  for (size_t off = 0; off < head; off += 1000) {
    client.SendRaw(long_line.substr(off, std::min<size_t>(1000, head - off)));
  }
  client.SendRaw(StrCat(long_line.substr(head), R"({"op":"ping","id":2})",
                        "\n\nnot json\n", R"({"op":"ping","id":3})", "\n",
                        R"({"op":"pi)"));
  client.SendRaw(R"(ng","id":4})"
                 "\n");
  for (int64_t id : {1, 2, -1, 3, 4}) {
    json::Value line = client.ReadLine();
    EXPECT_EQ(line.Get("id").as_int(), id);
    EXPECT_EQ(line.Get("ev").as_string(), id < 0 ? "error" : "done");
  }
}

TEST_F(SocketServerTest, ShutdownOpStopsTheServer) {
  SocketClient client(socket_path_);
  ASSERT_TRUE(client.connected());
  client.Send(R"({"op":"shutdown","id":1})");
  EXPECT_TRUE(client.ReadLine().Get("ok").as_bool());
  EXPECT_TRUE(server_->WaitFor(5000));
}

}  // namespace
}  // namespace seprec
