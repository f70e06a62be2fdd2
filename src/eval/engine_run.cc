#include "eval/engine_run.h"

#include <atomic>
#include <utility>

#include "eval/trace.h"
#include "util/string_util.h"

namespace seprec {

EngineRun::EngineRun(const char* engine, const FixpointOptions& options,
                     Database* db, EvalStats* stats,
                     std::function<Work()> work)
    : engine_(engine),
      options_(options),
      db_(db),
      stats_(stats),
      work_(std::move(work)),
      governor_(options.limits, options.cancel, options.context) {
  ctx()->TrackMemory(&db->accountant());
  if (options.trace == nullptr) return;
  // First-wins: a nested run sharing its caller's context no-ops here.
  ctx()->SetTrace(options.trace);
  db->counters().active = true;
  polls_before_ = ctx()->polls();
  attempts_before_ = db->counters().attempts.load(std::memory_order_relaxed);
  novel_before_ = db->counters().novel.load(std::memory_order_relaxed);
  TraceEvent e;
  e.kind = TraceEventKind::kEngineStart;
  e.engine = engine;
  options.trace->Emit(e);
}

FixpointOptions EngineRun::Nested(std::string_view phase) {
  FixpointOptions nested = options_;
  nested.context = ctx();
  nested.trace_phase_prefix = StrCat(options_.trace_phase_prefix, phase);
  return nested;
}

Status EngineRun::Finish(Status status) {
  Close();
  if (!status.ok()) return status;
  return governor_.ExitStatus();
}

void EngineRun::Close() {
  if (closed_) return;
  closed_ = true;
  TraceSink* trace = options_.trace;
  if (stats_ == nullptr && trace == nullptr) return;
  const double seconds = timer_.Seconds();
  if (stats_ != nullptr) stats_->seconds = seconds;
  if (trace == nullptr) return;
  Work work;
  if (work_) {
    work = work_();
  } else if (stats_ != nullptr) {
    work = Work{stats_->iterations, stats_->tuples_inserted};
  }
  TraceEvent e;
  e.kind = TraceEventKind::kEngineFinish;
  e.engine = engine_;
  e.seconds = seconds;
  e.iterations = work.iterations;
  e.tuples = work.tuples;
  e.polls = ctx()->polls() - polls_before_;
  e.insert_attempts =
      db_->counters().attempts.load(std::memory_order_relaxed) -
      attempts_before_;
  e.insert_new =
      db_->counters().novel.load(std::memory_order_relaxed) - novel_before_;
  trace->Emit(e);
}

}  // namespace seprec
