// The traced half of the benchmark: an in-process replay of the request
// stream a socket run sent, with a span around the public entry point of
// every layer it passes through.
#ifndef SEPREC_PERFBENCH_REPLAY_H_
#define SEPREC_PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "socket_run.h"
#include "workload.h"

namespace perfbench {

struct ReplayInput {
  const Workload* workload = nullptr;
  // What the socket run sent: the warm-up on connection 0, then the timed
  // window per connection. Each record's summary line carries the cache
  // hit flags the server reported for that request.
  const std::vector<OpRecord>* warmup = nullptr;
  const std::vector<std::vector<OpRecord>>* window = nullptr;
  std::string pristine_dir;  // the prepared data dir (copied, never opened)
  std::string work_dir;      // scratch space for the copies
  std::string spans_path;    // where the spans are written at the end
  double socket_query_p50_us = 0.0;
};

struct ReplayResult {
  std::map<std::string, double> metrics;  // every per-layer metric
  std::vector<std::string> report;        // human-readable lines
  std::vector<std::string> violations;    // failed path assertions
};

// Every per-layer metric as (name, unit), in report order.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

bool RunReplay(const ReplayInput& in, ReplayResult* out, std::string* error);

}  // namespace perfbench

#endif  // SEPREC_PERFBENCH_REPLAY_H_
