#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "core/compiler.h"
#include "core/query.h"
#include "datalog/parser.h"
#include "eval/incremental.h"
#include "server/json.h"
#include "server/service.h"
#include "storage/io.h"
#include "storage/recovery.h"
#include "storage/segment/snapshot_v3.h"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

using seprec::Database;
using seprec::DurableStorage;
using seprec::QueryService;

// ---- spans -----------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t request;
  int parent;
  int64_t start;
  int64_t end;
  bool window;
};

class Tracer {
 public:
  int Open(const char* name, uint64_t request, int parent) {
    spans_.push_back({name, request, parent, NowNs(), 0, window_});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int i) { spans_[i].end = NowNs(); }
  void set_window(bool w) { window_ = w; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  bool window_ = false;
};

class Scope {
 public:
  Scope(Tracer* t, const char* name, uint64_t request, int parent)
      : t_(t), i_(t->Open(name, request, parent)) {}
  ~Scope() { t_->Close(i_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int i_;
};

// The spans that time a layer inside QueryService::Execute / Apply, for
// the coverage figure. opt.pipeline is left out: Prepare runs the
// pipeline itself, so plan.prepare already covers it.
const std::set<std::string>& CoveringSpans() {
  static const std::set<std::string> s = {
      "datalog.parse",    "separable.detect", "plan.prepare",
      "separable.cold",   "separable.hit",    "magic.execute",
      "opt.nonrecursive", "eval.execute",     "core.render",
      "storage.wal_append", "storage.apply",  "eval.dred",
      "storage.checkpoint"};
  return s;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// ---- what the socket run reported per request ---------------------------

struct Flags {
  bool processor_hit = false;
  bool plan_hit = false;
  bool closure_hit = false;
};

Flags FlagsOf(const OpRecord& r) {
  Flags f;
  f.processor_hit = r.summary.find("\"detections\":0,") != std::string::npos;
  f.plan_hit = r.summary.find("\"plan_cache\":\"hit\"") != std::string::npos;
  f.closure_hit =
      r.summary.find("\"closure_cache\":\"hit\"") != std::string::npos;
  return f;
}

seprec::TupleBatch BatchOf(const Op& op) {
  seprec::TupleBatch batch;
  batch.relation = op.relation;
  batch.arity = op.rows.empty() || op.rows[0].second.empty() ? 1 : 2;
  batch.op = op.kind == Op::kDelete ? seprec::BatchOp::kDelete
                                    : seprec::BatchOp::kInsert;
  for (const Pair& p : op.rows) {
    std::vector<seprec::TypedCell> row{seprec::TypedCell::Symbol(p.first)};
    if (batch.arity == 2) row.push_back(seprec::TypedCell::Symbol(p.second));
    batch.rows.push_back(std::move(row));
  }
  return batch;
}

// The recorded ops in the order the socket run started them.
std::vector<const OpRecord*> Merged(
    const std::vector<std::vector<OpRecord>>& window) {
  std::vector<const OpRecord*> out;
  for (const auto& recs : window) {
    for (const OpRecord& r : recs) out.push_back(&r);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const OpRecord* a, const OpRecord* b) {
                     return a->start_ns < b->start_ns;
                   });
  return out;
}

// One reply's lines as the server builds them.
size_t Encode(uint64_t req,
              const std::vector<seprec::QueryOutcome>& outcomes) {
  namespace json = seprec::json;
  size_t bytes = 0;
  auto emit = [&](json::Object obj) {
    bytes += json::Serialize(json::Value(std::move(obj))).size() + 1;
  };
  const int64_t id = static_cast<int64_t>(req);
  for (const seprec::QueryOutcome& out : outcomes) {
    emit({{"id", json::Value(id)}, {"ev", json::Value("begin")},
          {"query", json::Value(out.query_text)}});
    for (const std::string& t : out.tuples) {
      emit({{"id", json::Value(id)}, {"ev", json::Value("result")},
            {"tuple", json::Value(t)}});
    }
    emit({{"id", json::Value(id)}, {"ev", json::Value("answer")},
          {"answers", json::Value(out.result.answer.size())},
          {"strategy", json::Value(std::string(
                           seprec::StrategyToString(out.result.strategy)))},
          {"reason", json::Value(out.result.reason)},
          {"plan_cache", json::Value(out.plan_cache_hit ? "hit" : "miss")},
          {"closure_cache",
           json::Value(out.closure_cache_hit ? "hit" : "miss")},
          {"generation", json::Value(out.generation)},
          {"partial", json::Value(out.result.partial)},
          {"seconds", json::Value(out.seconds)}});
  }
  emit({{"id", json::Value(id)}, {"ev", json::Value("done")},
        {"ok", json::Value(true)}});
  return bytes;
}

// A data dir copy opened in-process, with a query service over it.
struct Instance {
  Database db;
  std::unique_ptr<DurableStorage> storage;
  std::unique_ptr<QueryService> service;
  std::vector<seprec::ServiceRequest> subs;
  std::vector<std::set<std::string>> seen;

  bool Open(const ReplayInput& in, const std::string& dir, bool with_service,
            std::string* err) {
    fs::remove_all(dir);
    fs::copy(in.pristine_dir, dir, fs::copy_options::recursive);
    seprec::DurabilityOptions opts;
    auto policy = seprec::ParseFsyncPolicy(in.workload->fsync);
    if (policy.ok()) opts.fsync = *policy;
    opts.checkpoint_bytes = in.workload->checkpoint_bytes;
    seprec::RecoveryReport report;
    auto st = DurableStorage::Open(dir, &db, opts, &report);
    if (!st.ok()) {
      *err = st.status().ToString();
      return false;
    }
    storage = std::move(*st);
    if (!with_service) return true;
    seprec::ServiceOptions so;
    so.storage = storage.get();
    service = std::make_unique<QueryService>(&db, so);
    for (const OpPtr& op : in.workload->subscriptions) {
      seprec::ServiceRequest r;
      r.program = op->program;
      r.query = op->query;
      auto out = service->Execute(r);
      if (!out.ok() || out->size() != 1) {
        *err = "subscription baseline failed";
        return false;
      }
      subs.push_back(r);
      seen.emplace_back((*out)[0].tuples.begin(), (*out)[0].tuples.end());
    }
    return true;
  }

  ~Instance() {
    service.reset();  // drops its scratch relations from db
    storage.reset();
  }

  // What the server does after an effective mutation: re-run every
  // subscription and diff its answer against what was last delivered.
  void Notify() {
    for (size_t i = 0; i < subs.size(); ++i) {
      auto out = service->Execute(subs[i]);
      if (!out.ok() || out->size() != 1) continue;
      std::set<std::string> current((*out)[0].tuples.begin(),
                                    (*out)[0].tuples.end());
      size_t changes = 0;
      for (const std::string& t : current) changes += seen[i].count(t) == 0;
      for (const std::string& t : seen[i]) changes += current.count(t) == 0;
      if (changes > 0) seen[i] = std::move(current);
    }
  }

  // Runs one op through the service as a session does: Apply for a write;
  // Execute, then the reply's lines, for a query. Times the service call
  // into `service_us` and the reply into `encode_us`; returns the rows a
  // write changed.
  size_t Run(const Op& op, uint64_t req, double* service_us,
             double* encode_us) {
    const int64_t t = NowNs();
    if (op.is_write()) {
      auto changed = service->Apply(BatchOf(op));
      *service_us = (NowNs() - t) / 1e3;
      return changed.ok() ? *changed : 0;
    }
    seprec::ServiceRequest r;
    r.program = op.program;
    r.query = op.query;
    auto outcomes = service->Execute(r);
    const int64_t t_encode = NowNs();
    *service_us = (t_encode - t) / 1e3;
    if (outcomes.ok()) Encode(req, *outcomes);
    *encode_us = (NowNs() - t_encode) / 1e3;
    return 0;
  }
};

// ---- the layer replay --------------------------------------------------------

// Calls each layer's public entry point itself, on the request's inputs
// and in the service's order, against its own copy of the data dir. Its
// caches mirror the service's three (same capacities, LRU), and which
// entry points run follows the hit flags the socket run reported.
class Layers {
 public:
  Layers(Database* db, DurableStorage* storage, Tracer* tracer)
      : db_(db), storage_(storage), tracer_(tracer) {}
  ~Layers() {
    closures_.clear();  // engines and their relations first
    plans_.clear();     // then the schemas' scratch relations
    processors_.clear();
  }
  Layers(const Layers&) = delete;
  Layers& operator=(const Layers&) = delete;

  struct Counters {
    std::map<std::string, uint64_t> strategies;
    std::vector<double> phase1_rounds, tuples_inserted, max_relation;
    double emitted = 0, inserted = 0, probes = 0, answers = 0;
    double overdeleted = 0, rederived = 0;
    double wal_growth = 0, wal_rows = 0;
    uint64_t checkpoints = 0;
  };
  Counters counters;

  void Query(const Op& op, const Flags& flags, uint64_t req, int parent,
             bool window) {
    auto atom = seprec::ParseAtom(op.query);
    if (!atom.ok()) return;
    const uint64_t tick = ++tick_;

    std::shared_ptr<seprec::QueryProcessor> qp;
    auto pit = processors_.find(op.program);
    if (pit != processors_.end()) qp = pit->second.qp;
    if (!flags.processor_hit || qp == nullptr) {
      std::optional<Scope> parse, detect;
      if (!flags.processor_hit) parse.emplace(tracer_, "datalog.parse", req, parent);
      auto unit = seprec::ParseUnit(op.program);
      parse.reset();
      if (!unit.ok()) return;
      if (!flags.processor_hit) detect.emplace(tracer_, "separable.detect", req, parent);
      auto created = seprec::QueryProcessor::Create(unit->program);
      detect.reset();
      if (!created.ok()) return;
      qp = std::make_shared<seprec::QueryProcessor>(std::move(*created));
      Put(&processors_, op.program, ProcessorEntry{qp, tick}, 32);
    } else {
      pit->second.tick = tick;
    }

    std::string mask;
    for (bool b : seprec::BoundPositions(*atom)) mask.push_back(b ? 'b' : 'f');
    const std::string plan_key = op.program + "|" + atom->predicate + "|" + mask;
    PlanEntry* plan = nullptr;
    auto lit = plans_.find(plan_key);
    if (lit != plans_.end()) plan = &lit->second;
    if (!flags.plan_hit || plan == nullptr) {
      if (!flags.plan_hit) {
        Scope s(tracer_, "opt.pipeline", req, parent);
        auto report = qp->AnalyzeQuery(*atom);
        (void)report;
      }
      std::optional<Scope> prep;
      if (!flags.plan_hit) prep.emplace(tracer_, "plan.prepare", req, parent);
      auto prepared = qp->Prepare(*atom, db_);
      prep.reset();
      if (!prepared.ok()) return;
      PlanEntry entry{qp, std::make_unique<seprec::PreparedQuery>(
                              std::move(*prepared)),
                      tick};
      plan = Put(&plans_, plan_key, std::move(entry), 64);
    } else {
      plan->tick = tick;
    }
    const seprec::PreparedQuery& pq = *plan->prepared;

    ClosureEntry* reuse = nullptr;
    std::string closure_key;
    bool capture = false;
    if (pq.has_compiled_schema()) {
      closure_key = plan_key;
      for (const seprec::Term& t : atom->args) {
        if (t.IsConstant()) closure_key += t.ToString();
        closure_key += '|';
      }
      auto cit = closures_.find(closure_key);
      if (cit != closures_.end()) {
        reuse = cit->second.get();
        reuse->tick = tick;
      } else {
        capture = true;
      }
    }
    const char* exec = "eval.execute";
    switch (pq.strategy()) {
      case seprec::Strategy::kSeparable:
        exec = reuse != nullptr ? "separable.hit" : "separable.cold";
        break;
      case seprec::Strategy::kMagic: exec = "magic.execute"; break;
      case seprec::Strategy::kNonRecursive: exec = "opt.nonrecursive"; break;
      default: break;
    }
    seprec::Phase1Closure captured;
    seprec::StatusOr<seprec::QueryResult> result =
        seprec::InternalError("not run");
    {
      Scope s(tracer_, exec, req, parent);
      result = pq.Execute(*atom, db_, {},
                          reuse != nullptr ? &reuse->closure : nullptr,
                          capture ? &captured : nullptr, /*commit=*/false);
    }
    if (!result.ok()) return;
    if (capture && !captured.rows.empty() && !result->partial &&
        result->strategy == seprec::Strategy::kSeparable) {
      auto entry = std::make_unique<ClosureEntry>();
      entry->closure = std::move(captured);
      entry->tick = tick;
      Attach(pq, *atom, entry.get());
      if (closures_.size() >= 256) Evict(&closures_);
      closures_[closure_key] = std::move(entry);
    }
    {
      Scope s(tracer_, "core.render", req, parent);
      auto tuples = result->answer.ToStrings(db_->symbols());
      (void)tuples;
    }
    if (!window) return;
    const seprec::EvalStats& st = result->stats;
    ++counters.strategies[std::string(seprec::StrategyToString(result->strategy))];
    double rounds = 0;
    for (const auto& r : st.rounds) rounds += r.phase == "phase1";
    counters.phase1_rounds.push_back(rounds);
    counters.tuples_inserted.push_back(static_cast<double>(st.tuples_inserted));
    counters.max_relation.push_back(static_cast<double>(st.max_relation_size));
    for (const auto& [rule, rs] : st.rule_stats) {
      counters.emitted += rs.emitted;
      counters.inserted += rs.inserted;
      counters.probes += rs.probes;
    }
    counters.answers += result->answer.size();
  }

  void Write(const Op& op, uint64_t req, int parent, bool window) {
    const seprec::TupleBatch batch = BatchOf(op);
    {
      Scope s(tracer_, "storage.wal_append", req, parent);
      const uint64_t before = storage_->wal_bytes();
      if (!storage_->LogBatch(batch).ok()) return;
      if (window) {
        counters.wal_growth += storage_->wal_bytes() - before;
        counters.wal_rows += batch.rows.size();
      }
    }
    std::vector<ClosureEntry*> patching;
    for (auto& [key, e] : closures_) {
      if (e->engine != nullptr &&
          std::count(e->base.begin(), e->base.end(), batch.relation) > 0) {
        patching.push_back(e.get());
      }
    }
    std::vector<ClosureEntry*> broken;
    std::vector<std::vector<seprec::Value>> changed;
    const bool deleting = batch.op == seprec::BatchOp::kDelete;
    if (deleting && !patching.empty()) {
      std::vector<std::vector<seprec::Value>> rows;
      for (const auto& cells : batch.rows) {
        std::vector<seprec::Value> row;
        for (const auto& c : cells) row.push_back(db_->symbols().Intern(c.symbol));
        rows.push_back(std::move(row));
      }
      Scope s(tracer_, "eval.dred", req, parent);
      for (ClosureEntry* e : patching) {
        if (!e->engine->PrepareRemoval(batch.relation, rows).ok()) {
          broken.push_back(e);
        }
      }
    }
    size_t applied = 0;
    {
      Scope s(tracer_, "storage.apply", req, parent);
      auto a = seprec::ApplyTupleBatch(db_, batch, &changed);
      applied = a.ok() ? *a : 0;
    }
    if (!patching.empty() && (deleting || !changed.empty())) {
      Scope s(tracer_, "eval.dred", req, parent);
      for (ClosureEntry* e : patching) {
        seprec::Status st =
            deleting ? e->engine->FinishRemoval()
                     : e->engine->PropagateInserted(batch.relation, changed);
        if (!st.ok()) broken.push_back(e);
        if (window && deleting) {
          counters.overdeleted += e->engine->last_update().overdeleted;
          counters.rederived += e->engine->last_update().rederived;
        }
      }
    }
    if (applied > 0) {
      // The service's sweep: constant closures survive, maintained ones
      // are refreshed from their patched relation, the rest are dropped.
      for (auto it = closures_.begin(); it != closures_.end();) {
        ClosureEntry* e = it->second.get();
        bool keep = e->kind == seprec::ClosureMaintainability::kConstant ||
                    (e->engine != nullptr &&
                     std::find(broken.begin(), broken.end(), e) == broken.end());
        if (!keep) {
          it = closures_.erase(it);
          continue;
        }
        if (e->engine != nullptr) {
          e->closure.rows.clear();
          db_->Find(e->closure_rel)->ForEachRow([&](seprec::Row r) {
            e->closure.rows.emplace_back(r.begin(), r.end());
          });
        }
        ++it;
      }
    }
    if (storage_->ShouldCheckpoint()) {
      Scope s(tracer_, "storage.checkpoint", req, parent);
      auto info = storage_->Checkpoint(*db_);
      if (info.ok()) {
        (void)seprec::CompactToSnapshotSegments(
            db_, storage_->dir() + "/" + info->snapshot_file);
        if (window) ++counters.checkpoints;
      }
    }
  }

 private:
  struct ProcessorEntry {
    std::shared_ptr<seprec::QueryProcessor> qp;
    uint64_t tick;
  };
  struct PlanEntry {
    std::shared_ptr<seprec::QueryProcessor> owner;  // outlives `prepared`
    std::unique_ptr<seprec::PreparedQuery> prepared;
    uint64_t tick;
  };
  struct ClosureEntry {
    seprec::Phase1Closure closure;
    uint64_t tick = 0;
    seprec::ClosureMaintainability kind =
        seprec::ClosureMaintainability::kNone;
    std::unique_ptr<seprec::IncrementalEngine> engine;
    std::string closure_rel, seed_rel;
    std::vector<std::string> base;
    Database* db = nullptr;
    ~ClosureEntry() {
      if (db == nullptr) return;
      std::vector<std::string> scratch = engine->ScratchRelationNames();
      engine.reset();
      for (const std::string& n : scratch) db->Drop(n);
      db->Drop(closure_rel);
      db->Drop(seed_rel);
    }
  };

  template <typename Map>
  static void Evict(Map* m) {
    auto victim = m->begin();
    for (auto it = m->begin(); it != m->end(); ++it) {
      if (Tick(it->second) < Tick(victim->second)) victim = it;
    }
    m->erase(victim);
  }
  static uint64_t Tick(const ProcessorEntry& e) { return e.tick; }
  static uint64_t Tick(const PlanEntry& e) { return e.tick; }
  static uint64_t Tick(const std::unique_ptr<ClosureEntry>& e) {
    return e->tick;
  }
  template <typename Map, typename Entry>
  static typename Map::mapped_type* Put(Map* m, const std::string& key,
                                        Entry entry, size_t cap) {
    m->erase(key);
    if (m->size() >= cap) Evict(m);
    return &m->emplace(key, std::move(entry)).first->second;
  }

  // The service's AttachMaintenance, on this replay's own database.
  void Attach(const seprec::PreparedQuery& pq, const seprec::Atom& atom,
              ClosureEntry* e) {
    const seprec::PreparedSeparable* schema = pq.compiled_schema();
    if (schema == nullptr) return;
    seprec::ClosureMaintenance m = schema->MaintenanceFor(
        atom, "$pbdred" + std::to_string(next_id_++) + "_");
    e->kind = m.kind;
    if (m.kind != seprec::ClosureMaintainability::kMaintainable) return;
    auto engine = seprec::IncrementalEngine::Create(std::move(m.program), db_);
    seprec::Relation* seed = db_->Find(m.seed_name);
    seprec::Relation* closure = db_->Find(m.closure_name);
    if (!engine.ok() || seed == nullptr || closure == nullptr) {
      e->kind = seprec::ClosureMaintainability::kNone;
      return;
    }
    seed->Insert(seprec::Row(m.seed_row.data(), m.seed_row.size()));
    for (const auto& row : e->closure.rows) {
      closure->Insert(seprec::Row(row.data(), row.size()));
    }
    e->engine = std::make_unique<seprec::IncrementalEngine>(std::move(*engine));
    e->closure_rel = m.closure_name;
    e->seed_rel = m.seed_name;
    e->base = m.base_relations;
    e->db = db_;
  }

  Database* db_;
  DurableStorage* storage_;
  Tracer* tracer_;
  uint64_t tick_ = 0;
  uint64_t next_id_ = 0;
  std::map<std::string, ProcessorEntry> processors_;
  std::map<std::string, PlanEntry> plans_;
  std::map<std::string, std::unique_ptr<ClosureEntry>> closures_;
};

// Per-call times of one untraced replay, in microseconds.
struct Timings {
  std::vector<double> execute_us, apply_us, encode_us, notify_us;
  // The service call of every window op, in Merged() order (one thread).
  std::vector<double> service_us;
};

struct UntracedResult {
  Timings t;
  seprec::ServiceStats before, after;
  size_t relations_warm = 0, relations_end = 0;
};

// Replays the warm-up, then the window through QueryService alone, as the
// server's sessions run it: each query's reply is encoded and each
// effective write re-runs the subscriptions, both timed apart from the
// service call. With two threads each replays its own connection's ops.
bool UntracedPass(const ReplayInput& in, const std::string& dir, int threads,
                  UntracedResult* out, std::string* err) {
  Instance inst;
  if (!inst.Open(in, dir, true, err)) return false;
  auto replay = [&inst](const std::vector<const OpRecord*>& ops,
                        Timings* t) {
    for (const OpRecord* r : ops) {
      double service_us = 0, encode_us = 0;
      const size_t changed =
          inst.Run(*r->op, t->service_us.size(), &service_us, &encode_us);
      t->service_us.push_back(service_us);
      if (r->op->is_write()) {
        t->apply_us.push_back(service_us);
      } else {
        t->execute_us.push_back(service_us);
        t->encode_us.push_back(encode_us);
      }
      if (changed > 0 && !inst.subs.empty()) {
        const int64_t start = NowNs();
        inst.Notify();
        t->notify_us.push_back((NowNs() - start) / 1e3);
      }
    }
  };
  std::vector<const OpRecord*> warmup;
  for (const OpRecord& r : *in.warmup) warmup.push_back(&r);
  Timings discarded;
  replay(warmup, &discarded);
  out->before = inst.service->stats();
  out->relations_warm = inst.db.RelationNames().size();
  if (threads == 1) {
    replay(Merged(*in.window), &out->t);
  } else {
    // Only read-only workloads run more than one connection, so no
    // thread ever reaches Notify.
    std::vector<Timings> per_thread(in.window->size());
    std::vector<std::thread> workers;
    for (size_t c = 0; c < in.window->size(); ++c) {
      workers.emplace_back([&, c] {
        std::vector<const OpRecord*> ops;
        for (const OpRecord& r : (*in.window)[c]) ops.push_back(&r);
        replay(ops, &per_thread[c]);
      });
    }
    for (std::thread& w : workers) w.join();
    for (const Timings& t : per_thread) {
      out->t.execute_us.insert(out->t.execute_us.end(), t.execute_us.begin(),
                               t.execute_us.end());
    }
  }
  out->after = inst.service->stats();
  out->relations_end = inst.db.RelationNames().size();
  return true;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"server.decode_us", "us"},
      {"server.encode_us", "us"},
      {"server.reply_lines", "count"},
      {"server.socket_us", "us"},
      {"server.notify_us", "us"},
      {"service.execute_us", "us"},
      {"service.contention_us", "us"},
      {"service.apply_us", "us"},
      {"service.processor_hit_ratio", "ratio"},
      {"service.plan_hit_ratio", "ratio"},
      {"service.closure_hit_ratio", "ratio"},
      {"service.closure_patch_ratio", "ratio"},
      {"datalog.parse_us", "us"},
      {"separable.detect_us", "us"},
      {"opt.pipeline_us", "us"},
      {"plan.prepare_us", "us"},
      {"separable.cold_us", "us"},
      {"separable.hit_us", "us"},
      {"magic.execute_us", "us"},
      {"opt.nonrecursive_us", "us"},
      {"core.render_us", "us"},
      {"eval.phase1_rounds", "count"},
      {"eval.tuples_inserted", "count"},
      {"eval.max_relation", "count"},
      {"eval.insert_yield", "ratio"},
      {"eval.probes_per_answer", "ratio"},
      {"eval.dred_us", "us"},
      {"eval.dred_rederive_ratio", "ratio"},
      {"storage.relations_warm", "count"},
      {"storage.relations", "count"},
      {"storage.recover_ms", "ms"},
      {"storage.wal_append_us", "us"},
      {"storage.apply_us", "us"},
      {"storage.checkpoint_ms", "ms"},
      {"storage.checkpoints", "count"},
      {"storage.wal_bytes_per_row", "B/row"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_us", "us"},
  };
  return metrics;
}

bool RunReplay(const ReplayInput& in, ReplayResult* out, std::string* error) {
  const Workload& wl = *in.workload;
  fs::create_directories(in.work_dir);
  auto& m = out->metrics;

  // Recovery of the prepared dir, three times on fresh copies.
  std::vector<double> recover_ms;
  for (int i = 0; i < 3; ++i) {
    const std::string dir = in.work_dir + "/recover";
    fs::remove_all(dir);
    fs::copy(in.pristine_dir, dir, fs::copy_options::recursive);
    Database db;
    seprec::RecoveryReport report;
    const int64_t t = NowNs();
    auto st = DurableStorage::Open(dir, &db, {}, &report);
    recover_ms.push_back((NowNs() - t) / 1e6);
    if (!st.ok()) {
      *error = st.status().ToString();
      return false;
    }
  }
  m["storage.recover_ms"] = Median(recover_ms);

  UntracedResult one;
  if (!UntracedPass(in, in.work_dir + "/untraced", 1, &one, error)) return false;
  const double exec_us = Median(one.t.execute_us);
  m["service.execute_us"] = exec_us;
  m["service.apply_us"] = Median(one.t.apply_us);
  m["server.encode_us"] = Median(one.t.encode_us);
  m["server.notify_us"] = Median(one.t.notify_us);
  if (in.window->size() > 1) {
    UntracedResult two;
    if (!UntracedPass(in, in.work_dir + "/contended", 2, &two, error)) {
      return false;
    }
    m["service.contention_us"] = Median(two.t.execute_us) - exec_us;
  }
  const seprec::ServiceStats& a = one.before;
  const seprec::ServiceStats& b = one.after;
  m["service.processor_hit_ratio"] =
      Ratio(b.processor_hits - a.processor_hits,
            b.processor_hits - a.processor_hits + b.processor_misses -
                a.processor_misses);
  m["service.plan_hit_ratio"] = Ratio(
      b.plan_hits - a.plan_hits,
      b.plan_hits - a.plan_hits + b.plan_misses - a.plan_misses);
  m["service.closure_hit_ratio"] = Ratio(
      b.closure_hits - a.closure_hits,
      b.closure_hits - a.closure_hits + b.closure_misses - a.closure_misses);
  const uint64_t patches = b.closure_patches - a.closure_patches;
  const uint64_t drops = b.closure_drops - a.closure_drops;
  m["service.closure_patch_ratio"] = Ratio(patches, patches + drops);
  m["storage.relations_warm"] = static_cast<double>(one.relations_warm);
  m["storage.relations"] = static_cast<double>(one.relations_end);
  m["server.socket_us"] = in.socket_query_p50_us - exec_us;
  std::vector<double> lines;
  for (const auto& recs : *in.window) {
    for (const OpRecord& r : recs) {
      if (!r.op->is_write()) lines.push_back(r.lines);
    }
  }
  m["server.reply_lines"] = Median(lines);

  // The traced pass: the layer calls alone, on their own copy of the data.
  // "service.layers" spans what stands for one QueryService call.
  Tracer tracer;
  Instance layer_db;
  if (!layer_db.Open(in, in.work_dir + "/layers", false, error)) return false;
  auto layers = std::make_unique<Layers>(&layer_db.db, layer_db.storage.get(),
                                         &tracer);
  uint64_t req = 0;
  auto traced = [&](const OpRecord& r, bool window) {
    tracer.set_window(window);
    const Op& op = *r.op;
    ++req;
    const int root = tracer.Open("request", req, -1);
    {
      Scope s(&tracer, "server.decode", req, root);
      auto v = seprec::json::Parse(op.Line(static_cast<int64_t>(req)));
      (void)v;
    }
    const int service = tracer.Open("service.layers", req, root);
    if (op.is_write()) {
      layers->Write(op, req, service, window);
    } else {
      layers->Query(op, FlagsOf(r), req, service, window);
    }
    tracer.Close(service);
    tracer.Close(root);
  };
  for (const OpRecord& r : *in.warmup) traced(r, false);
  for (const OpRecord* r : Merged(*in.window)) traced(*r, true);
  const Layers::Counters c = layers->counters;
  layers.reset();

  // Per-request sums of each span name, over the window.
  std::map<std::string, std::map<uint64_t, double>> per_request;
  for (const Span& s : tracer.spans()) {
    if (!s.window) continue;
    per_request[s.name][s.request] += (s.end - s.start) / 1e3;
  }
  auto median_of = [&](const std::string& span) {
    std::vector<double> v;
    for (const auto& [r, us] : per_request[span]) v.push_back(us);
    return Median(v);
  };
  for (const char* name :
       {"server.decode", "datalog.parse", "separable.detect", "opt.pipeline",
        "plan.prepare", "separable.cold", "separable.hit", "magic.execute",
        "opt.nonrecursive", "core.render", "eval.dred", "storage.wal_append",
        "storage.apply"}) {
    m[std::string(name) + "_us"] = median_of(name);
  }
  m["storage.checkpoint_ms"] = median_of("storage.checkpoint") / 1e3;
  m["storage.checkpoints"] = static_cast<double>(c.checkpoints);
  m["storage.wal_bytes_per_row"] =
      c.wal_rows > 0 ? c.wal_growth / c.wal_rows : 0.0;
  // Counts are means per call: a median of phase-1 rounds is 0 whenever
  // most calls skip phase 1, which hides the calls that do not.
  m["eval.phase1_rounds"] = Mean(c.phase1_rounds);
  m["eval.tuples_inserted"] = Mean(c.tuples_inserted);
  m["eval.max_relation"] = Mean(c.max_relation);
  m["eval.insert_yield"] = c.emitted > 0 ? c.inserted / c.emitted : 0.0;
  m["eval.probes_per_answer"] = c.answers > 0 ? c.probes / c.answers : 0.0;
  m["eval.dred_rederive_ratio"] =
      c.overdeleted > 0 ? c.rederived / c.overdeleted : 0.0;

  // Coverage: the layer spans' time over the untraced service time of the
  // same window ops. The two come from different executions, so it can
  // exceed 1.
  double covered = 0, service_total = 0;
  for (const auto& [name, reqs] : per_request) {
    if (CoveringSpans().count(name) == 0) continue;
    for (const auto& [r, us] : reqs) covered += us;
  }
  for (double us : one.t.service_us) service_total += us;
  m["trace.coverage"] = service_total > 0 ? covered / service_total : 0.0;
  // Overhead: per window op, the traced layer calls minus the untraced
  // service call for the same op. Both replays walk the window in the same
  // order, so the i-th traced request is the i-th untraced one.
  std::vector<double> traced_us, overhead_us;
  for (const auto& [r, us] : per_request["service.layers"]) {
    traced_us.push_back(us);
  }
  if (traced_us.size() != one.t.service_us.size()) {
    *error = "the traced and untraced passes replayed different windows";
    return false;
  }
  for (size_t i = 0; i < traced_us.size(); ++i) {
    overhead_us.push_back(traced_us[i] - one.t.service_us[i]);
  }
  m["trace.overhead_us"] = Median(overhead_us);

  char line[256];
  std::snprintf(line, sizeof(line),
                "trace: %zu spans; layer calls / untraced service time = "
                "%.1f%%; per op traced=%.1f untraced=%.1f us "
                "(overhead median %+.1f us)",
                tracer.spans().size(), 100.0 * m["trace.coverage"],
                Median(traced_us), Median(one.t.service_us),
                m["trace.overhead_us"]);
  out->report.push_back(line);
  std::string routes = "routes:";
  for (const auto& [s, n] : c.strategies) {
    routes += " " + s + "=" + std::to_string(n);
  }
  out->report.push_back(routes);
  std::snprintf(line, sizeof(line),
                "storage.relations after warm-up=%zu at end=%zu; "
                "closure patches=%llu drops=%llu",
                one.relations_warm, one.relations_end,
                static_cast<unsigned long long>(patches),
                static_cast<unsigned long long>(drops));
  out->report.push_back(line);

  // Path assertions: each workload must stay on the path it is meant to
  // measure.
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) out->violations.push_back(what);
  };
  if (wl.name == "hot_reads") {
    expect(m["service.closure_hit_ratio"] == 1.0,
           "hot_reads: closure hit ratio is not 1");
    expect(per_request["datalog.parse"].empty(),
           "hot_reads: a program was parsed inside the window");
  } else if (wl.name == "adhoc_queries") {
    expect(m["service.processor_hit_ratio"] == 0.0 &&
               m["service.plan_hit_ratio"] == 0.0 &&
               m["service.closure_hit_ratio"] == 0.0,
           "adhoc_queries: a cache hit inside the window");
    for (const char* s : {"separable", "magic", "nonrecursive"}) {
      expect(c.strategies.count(s) > 0,
             std::string("adhoc_queries: nothing routed to ") + s);
    }
  } else if (wl.name == "write_mix") {
    expect(c.checkpoints >= 3, "write_mix: fewer than 3 checkpoints");
    expect(patches > 0 && drops > 0,
           "write_mix: closures were not both patched and dropped");
  }

  std::ofstream spans(in.spans_path);
  spans << "request\tspan\tparent\tstart_ns\tend_ns\twindow\n";
  for (const Span& s : tracer.spans()) {
    spans << s.request << '\t' << s.name << '\t' << s.parent << '\t'
          << s.start << '\t' << s.end << '\t' << s.window << '\n';
  }
  return true;
}

}  // namespace perfbench
