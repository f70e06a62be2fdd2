// EngineRun: the bracket around one engine invocation.
//
// Every engine entry point (semi-naive, naive, Separable, Magic, Counting,
// QSQR, the non-recursive evaluator and the incremental updates) opens one
// EngineRun once it accepts a program. The run owns the engine's wall
// timer and its governor context — the caller's, adopted, or a private one
// (see GovernorScope) — charges the database's memory accountant to it,
// and, when FixpointOptions::trace is set, attaches the sink, turns on the
// insert counters and emits engine_start.
//
// The matching engine_finish is emitted when the run closes: at Finish(),
// or in the destructor on any other exit path. So every engine_start gets
// exactly one engine_finish — on success, on error, and on a fallback hop
// alike — for the engine and for every engine nested in it. Engines that
// refuse a program before opening a run emit nothing.
#ifndef SEPREC_EVAL_ENGINE_RUN_H_
#define SEPREC_EVAL_ENGINE_RUN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

#include "core/governor.h"
#include "eval/eval_stats.h"
#include "eval/fixpoint.h"
#include "storage/database.h"
#include "util/status.h"
#include "util/timer.h"

namespace seprec {

class EngineRun {
 public:
  // The Definition 4.2 work engine_finish reports.
  struct Work {
    size_t iterations = 0;  // fixpoint rounds
    size_t tuples = 0;      // distinct tuples inserted
  };

  // Opens the run. `stats` (may be null) receives the run's wall time when
  // it closes, and engine_finish reports its iterations and
  // tuples_inserted — unless `work` is given, which engines use when
  // `stats` is shared with their caller. Both are read at close, and
  // `options`, `db` and `stats` must outlive the run.
  EngineRun(const char* engine, const FixpointOptions& options, Database* db,
            EvalStats* stats, std::function<Work()> work = {});
  ~EngineRun() { Close(); }

  EngineRun(const EngineRun&) = delete;
  EngineRun& operator=(const EngineRun&) = delete;

  // The context the engine polls.
  ExecutionContext* ctx() { return governor_.ctx(); }

  // The options for an engine nested in this run: they adopt this run's
  // context, and `phase` extends the trace phase prefix.
  FixpointOptions Nested(std::string_view phase = {});

  // Wall time since the run opened.
  double Seconds() const { return timer_.Seconds(); }

  // Closes the run and returns `status` or, when that is OK, the trip of a
  // context this run owns (CANCELLED / RESOURCE_EXHAUSTED).
  Status Finish(Status status = Status::OK());

 private:
  // Stamps stats->seconds and emits engine_finish, once.
  void Close();

  const char* engine_;
  const FixpointOptions& options_;
  Database* db_;
  EvalStats* stats_;
  std::function<Work()> work_;
  WallTimer timer_;
  GovernorScope governor_;
  bool closed_ = false;
  // Governor polls and insert counters when the run opened (traced runs
  // only); engine_finish reports the deltas.
  uint64_t polls_before_ = 0;
  uint64_t attempts_before_ = 0;
  uint64_t novel_before_ = 0;
};

}  // namespace seprec

#endif  // SEPREC_EVAL_ENGINE_RUN_H_
