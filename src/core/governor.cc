#include "core/governor.h"

#include "eval/trace.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace seprec {

std::string_view StopCauseToString(StopCause cause) {
  switch (cause) {
    case StopCause::kNone: return "none";
    case StopCause::kDeadline: return "deadline exceeded";
    case StopCause::kCancelled: return "cancelled";
    case StopCause::kIterations: return "iteration budget exhausted";
    case StopCause::kTuples: return "tuple budget exhausted";
    case StopCause::kBytes: return "memory budget exhausted";
  }
  return "?";
}

ExecutionContext::ExecutionContext(const ExecutionLimits& limits,
                                   CancellationToken* cancel)
    : limits_(limits),
      cancel_(cancel),
      deadline_(limits.timeout_ms < 0
                    ? Deadline::Infinite()
                    : Deadline::AfterMillis(limits.timeout_ms)) {}

void ExecutionContext::TrackMemory(const MemoryAccountant* accountant) {
  if (accountant_ != nullptr || accountant == nullptr) return;
  accountant_ = accountant;
  baseline_bytes_ = accountant->bytes();
}

size_t ExecutionContext::BytesUsed() const {
  if (accountant_ == nullptr) return 0;
  size_t now = accountant_->bytes();
  return now > baseline_bytes_ ? now - baseline_bytes_ : 0;
}

std::string ExecutionContext::message() const {
  std::lock_guard<std::mutex> lock(latch_mu_);
  return message_;
}

bool ExecutionContext::Latch(StopCause cause, std::string message) {
  bool latched = false;
  TraceEvent event;
  {
    std::lock_guard<std::mutex> lock(latch_mu_);
    if (cause_.load(std::memory_order_relaxed) == StopCause::kNone) {
      if (trace_ != nullptr) {
        event.kind = TraceEventKind::kGovernorTrip;
        event.cause = std::string(StopCauseToString(cause));
        event.detail = message;
        latched = true;
      }
      message_ = std::move(message);
      // Release: a thread observing the cause also sees the message.
      cause_.store(cause, std::memory_order_release);
    }
  }
  // Emit outside latch_mu_: the sink has its own lock, and message()
  // readers must not wait on serialisation.
  if (latched) trace_->Emit(event);
  return true;
}

bool ExecutionContext::ShouldStop() {
  if (trace_ != nullptr) polls_.fetch_add(1, std::memory_order_relaxed);
  if (stopped()) return true;
  if (cancel_ != nullptr && cancel_->cancelled()) {
    return Latch(StopCause::kCancelled, "evaluation cancelled by caller");
  }
  if (Failpoints::Hit("governor.poll")) {
    return Latch(StopCause::kCancelled,
                 "evaluation cancelled (injected at governor.poll)");
  }
  if (deadline_.expired()) {
    return Latch(StopCause::kDeadline,
                 StrCat("deadline of ", limits_.timeout_ms, " ms exceeded"));
  }
  if (tuples() > limits_.max_tuples) {
    return Latch(StopCause::kTuples,
                 StrCat("evaluation exceeded ", limits_.max_tuples,
                        " tuples"));
  }
  if (limits_.max_bytes != ExecutionLimits::kUnlimited &&
      BytesUsed() > limits_.max_bytes) {
    return Latch(StopCause::kBytes,
                 StrCat("evaluation exceeded ", limits_.max_bytes,
                        " bytes (used ", BytesUsed(), ")"));
  }
  return false;
}

bool ExecutionContext::NoteIterationAndCheck() {
  ++iterations_;
  if (!stopped() && iterations_ > limits_.max_iterations) {
    Latch(StopCause::kIterations,
          StrCat("evaluation exceeded ", limits_.max_iterations,
                 " iterations"));
  }
  return ShouldStop();
}

Status ExecutionContext::ToStatus() const {
  switch (cause()) {
    case StopCause::kNone:
      return Status::OK();
    case StopCause::kCancelled:
      return CancelledError(message());
    default:
      return ResourceExhaustedError(message());
  }
}

}  // namespace seprec
