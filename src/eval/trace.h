// Structured evaluation tracing: typed events emitted by every engine.
//
// The paper's cost model (Definition 4.2) is stated in terms of the sizes
// of constructed relations and per-phase work. EvalStats reports the final
// sizes; the trace layer reports how they got there: per-round deltas,
// per-rule probe/emit counts, staging-merge statistics and governor
// activity. Engines hold a `TraceSink*` (default null) and guard every
// emission with a null check, so the disabled path costs one branch per
// round — cheap enough that the bench-regression gate holds with tracing
// off.
//
// Event schema (one JSON object per line from JsonTraceSink; all events
// carry "v" (JsonTraceSink::kSchemaVersion), "seq" (global order), "t"
// (seconds since the sink was created) and "ev"; tools/validate_trace.py
// checks a file against this table):
//
//   engine_start   engine
//   engine_finish  engine, seconds, iterations, tuples, polls,
//                  insert_attempts, insert_new
//   round_start    engine, phase, round, delta
//   round_end      engine, phase, round, emitted, inserted, delta
//   rule           engine, phase, round, rule, emitted, inserted, probes
//   merge          engine, phase, round, staged, inserted
//   governor_trip  cause, detail
//   cache          phase (cache layer: "processor"/"plan"/"closure"/"all"),
//                  cause ("hit"/"miss"/"store"/"evict"/"purge"), detail (key)
//   session        cause ("open"/"close"/"request"), detail
//   pass           pass (pipeline pass name, or "strategy" for the final
//                  selection), verdict ("proved"/"rewritten"/"abstained",
//                  or the strategy name), detail
//   plan           engine, phase, rule, mode ("cbo"/"cbo-fallback"/
//                  "textual"), algo ("merge" when the leading atom pair
//                  merge-joins on ordered segments, else "hash"), order
//                  (comma-joined body indices of the positive atoms in
//                  scan order), cost (estimated row visits), est_rows
//                  (estimated output bindings)
//   delta          phase ("insert"/"delete"), detail (relation), delta
//                  (rows that actually changed the relation), inserted
//                  (cached closures patched in place), emitted (cached
//                  closures invalidated), seconds
//   subscription   cause ("subscribe"/"unsubscribe"/"notify"/"drop"),
//                  detail (subscription id and query), delta (tuples
//                  delivered by a notify)
//   note           detail
//
// Semantics: `emitted` counts head tuples produced by rule bodies,
// duplicates included. `inserted` counts tuples that were new in the
// target: for a rule event, new in the round's staging sink; for merge
// and round_end events, new in the materialised relation. Both are
// deterministic for a given program and database.
#ifndef SEPREC_EVAL_TRACE_H_
#define SEPREC_EVAL_TRACE_H_

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "util/timer.h"

namespace seprec {

enum class TraceEventKind {
  kEngineStart,
  kEngineFinish,
  kRoundStart,
  kRoundEnd,
  kRule,
  kMerge,
  kGovernorTrip,
  kCache,    // query-service cache activity (hit/miss/store/evict/purge)
  kSession,  // query-service session lifecycle (open/request/close)
  kPass,     // static-analysis pipeline verdicts and strategy selection
  kPlan,     // cost-based planner verdict for one compiled rule body
  kDelta,    // incremental mutation applied through the query service
  kSubscription,  // server subscription lifecycle and delivery
  kNote,
};

const char* TraceEventKindName(TraceEventKind kind);

// One typed event. Which fields are meaningful depends on `kind` (see the
// schema above); sinks serialise only the fields the kind defines.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kNote;
  std::string engine;  // "seminaive", "naive", "separable", "magic", ...
  std::string phase;   // "stratum0", "phase1", "exit", "insert", ...
  std::string rule;    // source text of the rule (kRule)
  std::string cause;   // stop cause (kGovernorTrip); verdict (kPass);
                       // planner mode (kPlan)
  std::string detail;  // free-form context (kGovernorTrip, kNote); atom
                       // order (kPlan)
  std::string algo;    // kPlan: "hash" | "merge" (leading-pair join)
  uint64_t round = 0;
  uint64_t emitted = 0;         // head tuples produced, duplicates included
  uint64_t inserted = 0;        // tuples new in the target relation
  uint64_t probes = 0;          // candidate rows examined by join steps
  uint64_t staged = 0;          // rows staged into a StagingSink pre-merge
  uint64_t delta = 0;           // rows feeding the next round
  uint64_t iterations = 0;      // kEngineFinish: total fixpoint rounds
  uint64_t tuples = 0;          // kEngineFinish: distinct tuples inserted
  uint64_t polls = 0;           // kEngineFinish: governor polls observed
  uint64_t insert_attempts = 0; // kEngineFinish: Relation::Insert calls
  uint64_t insert_new = 0;      // kEngineFinish: inserts that were new rows
  uint64_t est_rows = 0;        // kPlan: estimated output bindings
  double cost = 0.0;            // kPlan: estimated cost (row visits)
  double seconds = 0.0;
};

// Receives events from engines. Implementations must be safe to call from
// multiple threads concurrently: the query service shares one sink across
// its session threads.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Emit(const TraceEvent& event) = 0;
};

// Serialises events as JSON lines ("\n"-terminated objects) to an ostream.
// Events are stamped with a global sequence number and seconds since the
// sink was constructed; emission is serialised by an internal mutex.
class JsonTraceSink : public TraceSink {
 public:
  explicit JsonTraceSink(std::ostream* out) : out_(out) {}
  void Emit(const TraceEvent& event) override;

  // The "v" every line carries; the only version tools/validate_trace.py
  // accepts.
  static constexpr int kSchemaVersion = 5;

 private:
  std::ostream* out_;
  std::mutex mu_;
  uint64_t seq_ = 0;
  WallTimer timer_;
};

// Buffers events in memory; the test-side sink.
class CollectingTraceSink : public TraceSink {
 public:
  void Emit(const TraceEvent& event) override {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(event);
  }

  // Copies out the events observed so far.
  std::vector<TraceEvent> Events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

}  // namespace seprec

#endif  // SEPREC_EVAL_TRACE_H_
