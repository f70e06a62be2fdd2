// The socket half of the benchmark: a spawned `seprec_cli serve` process
// and the closed-loop clients that drive it over its Unix socket.
//
// The timed path reads replies as raw bytes: result lines are recognised
// by their fixed prefix and folded into an order-independent digest, and
// the one summary line per request (answer, ack or error) is kept verbatim
// for decoding after the window.
#ifndef SEPREC_PERFBENCH_SOCKET_RUN_H_
#define SEPREC_PERFBENCH_SOCKET_RUN_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workload.h"

namespace perfbench {

// Monotonic clock in nanoseconds.
int64_t NowNs();

class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(const std::string& socket_path);
  bool Send(std::string_view line);
  // The next reply line without its '\n'; the view stays valid until the
  // next call. False at end of stream.
  bool ReadLine(std::string_view* line);
  void Close();

 private:
  int fd_ = -1;
  std::string buf_;
  size_t begin_ = 0;
  size_t end_ = 0;
};

// One op as the client saw it. Times are relative to the window start.
struct OpRecord {
  OpPtr op;
  int64_t start_ns = 0;  // request line about to be written
  int64_t end_ns = 0;    // `done` (or error) line read
  Digest digest;         // result lines of a query
  uint32_t lines = 0;    // reply lines
  bool error = false;    // an error line, or the stream ended
  std::string summary;   // the answer line, the load ack, or the error
};

// Sends `op` with request id `id` and reads its whole reply.
void RunOp(Connection* conn, const OpPtr& op, int64_t id, int64_t t0,
           OpRecord* rec);

// A `seprec_cli serve` child process.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns the server and waits until its socket accepts a connection.
  bool Start(const std::string& cli, const std::string& socket_path,
             const std::string& data_dir, const Workload& workload,
             const std::string& log_path);
  // Peak resident set (VmHWM) in MB, read from /proc.
  double PeakRssMb() const;
  // CPU seconds (all threads) the process has run so far in user and in
  // system mode, read from /proc. Time the hypervisor gave to other guests
  // (steal) is in neither.
  struct CpuTimes {
    double user_s = 0.0;
    double system_s = 0.0;
  };
  CpuTimes Cpu() const;
  // Sends shutdown on `conn` and waits for the process to exit; kills it
  // if it does not exit in time. Returns true on a clean exit.
  bool Stop(Connection* conn);

 private:
  bool Reap(int timeout_ms);
  pid_t pid_ = -1;
};

}  // namespace perfbench

#endif  // SEPREC_PERFBENCH_SOCKET_RUN_H_
