#include "eval/trace.h"

#include <cstdio>

namespace seprec {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kEngineStart:
      return "engine_start";
    case TraceEventKind::kEngineFinish:
      return "engine_finish";
    case TraceEventKind::kRoundStart:
      return "round_start";
    case TraceEventKind::kRoundEnd:
      return "round_end";
    case TraceEventKind::kRule:
      return "rule";
    case TraceEventKind::kMerge:
      return "merge";
    case TraceEventKind::kGovernorTrip:
      return "governor_trip";
    case TraceEventKind::kCache:
      return "cache";
    case TraceEventKind::kSession:
      return "session";
    case TraceEventKind::kPass:
      return "pass";
    case TraceEventKind::kPlan:
      return "plan";
    case TraceEventKind::kDelta:
      return "delta";
    case TraceEventKind::kSubscription:
      return "subscription";
    case TraceEventKind::kNote:
      return "note";
  }
  return "unknown";
}

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendStr(std::string* out, const char* key, const std::string& value) {
  *out += ",\"";
  *out += key;
  *out += "\":\"";
  AppendEscaped(out, value);
  *out += '"';
}

void AppendNum(std::string* out, const char* key, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  *out += ",\"";
  *out += key;
  *out += "\":";
  *out += buf;
}

void AppendSeconds(std::string* out, const char* key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9f", value);
  *out += ",\"";
  *out += key;
  *out += "\":";
  *out += buf;
}

}  // namespace

void JsonTraceSink::Emit(const TraceEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string line = "{\"v\":";
  {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d", kSchemaVersion);
    line += buf;
  }
  AppendNum(&line, "seq", seq_++);
  AppendSeconds(&line, "t", timer_.Seconds());
  AppendStr(&line, "ev", TraceEventKindName(e.kind));
  switch (e.kind) {
    case TraceEventKind::kEngineStart:
      AppendStr(&line, "engine", e.engine);
      break;
    case TraceEventKind::kEngineFinish:
      AppendStr(&line, "engine", e.engine);
      AppendSeconds(&line, "seconds", e.seconds);
      AppendNum(&line, "iterations", e.iterations);
      AppendNum(&line, "tuples", e.tuples);
      AppendNum(&line, "polls", e.polls);
      AppendNum(&line, "insert_attempts", e.insert_attempts);
      AppendNum(&line, "insert_new", e.insert_new);
      break;
    case TraceEventKind::kRoundStart:
      AppendStr(&line, "engine", e.engine);
      AppendStr(&line, "phase", e.phase);
      AppendNum(&line, "round", e.round);
      AppendNum(&line, "delta", e.delta);
      break;
    case TraceEventKind::kRoundEnd:
      AppendStr(&line, "engine", e.engine);
      AppendStr(&line, "phase", e.phase);
      AppendNum(&line, "round", e.round);
      AppendNum(&line, "emitted", e.emitted);
      AppendNum(&line, "inserted", e.inserted);
      AppendNum(&line, "delta", e.delta);
      break;
    case TraceEventKind::kRule:
      AppendStr(&line, "engine", e.engine);
      AppendStr(&line, "phase", e.phase);
      AppendNum(&line, "round", e.round);
      AppendStr(&line, "rule", e.rule);
      AppendNum(&line, "emitted", e.emitted);
      AppendNum(&line, "inserted", e.inserted);
      AppendNum(&line, "probes", e.probes);
      break;
    case TraceEventKind::kMerge:
      AppendStr(&line, "engine", e.engine);
      AppendStr(&line, "phase", e.phase);
      AppendNum(&line, "round", e.round);
      AppendNum(&line, "staged", e.staged);
      AppendNum(&line, "inserted", e.inserted);
      break;
    case TraceEventKind::kGovernorTrip:
      AppendStr(&line, "cause", e.cause);
      AppendStr(&line, "detail", e.detail);
      break;
    case TraceEventKind::kCache:
      AppendStr(&line, "phase", e.phase);
      AppendStr(&line, "cause", e.cause);
      AppendStr(&line, "detail", e.detail);
      break;
    case TraceEventKind::kSession:
      AppendStr(&line, "cause", e.cause);
      AppendStr(&line, "detail", e.detail);
      break;
    case TraceEventKind::kPass:
      AppendStr(&line, "pass", e.phase);
      AppendStr(&line, "verdict", e.cause);
      AppendStr(&line, "detail", e.detail);
      break;
    case TraceEventKind::kPlan:
      AppendStr(&line, "engine", e.engine);
      AppendStr(&line, "phase", e.phase);
      AppendStr(&line, "rule", e.rule);
      AppendStr(&line, "mode", e.cause);
      AppendStr(&line, "order", e.detail);
      AppendStr(&line, "algo", e.algo.empty() ? "hash" : e.algo);
      AppendSeconds(&line, "cost", e.cost);
      AppendNum(&line, "est_rows", e.est_rows);
      break;
    case TraceEventKind::kDelta:
      AppendStr(&line, "phase", e.phase);
      AppendStr(&line, "detail", e.detail);
      AppendNum(&line, "delta", e.delta);
      AppendNum(&line, "inserted", e.inserted);
      AppendNum(&line, "emitted", e.emitted);
      AppendSeconds(&line, "seconds", e.seconds);
      break;
    case TraceEventKind::kSubscription:
      AppendStr(&line, "cause", e.cause);
      AppendStr(&line, "detail", e.detail);
      AppendNum(&line, "delta", e.delta);
      break;
    case TraceEventKind::kNote:
      AppendStr(&line, "detail", e.detail);
      break;
  }
  line += "}\n";
  *out_ << line;
  out_->flush();
}

}  // namespace seprec
