#include "socket_run.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Connection::~Connection() { Close(); }

bool Connection::Connect(const std::string& socket_path) {
  Close();
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  buf_.assign(1 << 16, '\0');
  begin_ = end_ = 0;
  return true;
}

bool Connection::Send(std::string_view line) {
  size_t off = 0;
  while (off < line.size()) {
    ssize_t n = ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Connection::ReadLine(std::string_view* line) {
  for (;;) {
    const char* start = buf_.data() + begin_;
    const void* nl = std::memchr(start, '\n', end_ - begin_);
    if (nl != nullptr) {
      size_t len = static_cast<const char*>(nl) - start;
      *line = std::string_view(start, len);
      begin_ += len + 1;
      return true;
    }
    if (begin_ > 0) {  // compact the partial line to the front
      std::memmove(buf_.data(), start, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
    ssize_t n = ::recv(fd_, buf_.data() + end_, buf_.size() - end_, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    end_ += static_cast<size_t>(n);
  }
}

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void RunOp(Connection* conn, const OpPtr& op, int64_t id, int64_t t0,
           OpRecord* rec) {
  const std::string line = op->Line(id);
  rec->op = op;
  rec->start_ns = NowNs() - t0;
  if (!conn->Send(line)) {
    rec->error = true;
    rec->summary = "send failed";
    rec->end_ns = NowNs() - t0;
    return;
  }
  std::string_view l;
  for (;;) {
    if (!conn->ReadLine(&l)) {
      rec->error = true;
      rec->summary = "connection closed mid-reply";
      break;
    }
    ++rec->lines;
    if (StartsWith(l, "{\"ev\":\"result\"")) {
      // {"ev":"result","id":N,"tuple":"(a, b)"}: keys are sorted, so the
      // tuple text runs from after `"tuple":"` to the closing `"}`.
      size_t p = l.find("\"tuple\":\"", 20);
      if (p == std::string_view::npos || l.size() < p + 11) {
        rec->error = true;
        rec->summary = std::string(l);
        break;
      }
      rec->digest.Add(l.substr(p + 9, l.size() - p - 11));
    } else if (StartsWith(l, "{\"ev\":\"done\"")) {
      break;
    } else if (StartsWith(l, "{\"answers\"") || StartsWith(l, "{\"added\"")) {
      rec->summary.assign(l);
      if (op->is_write()) break;
    } else if (!StartsWith(l, "{\"ev\":\"begin\"")) {
      rec->error = true;  // an error line, or anything unexpected
      rec->summary.assign(l);
      break;
    }
  }
  rec->end_ns = NowNs() - t0;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    Reap(5000);
  }
}

bool ServerProcess::Start(const std::string& cli, const std::string& socket_path,
                          const std::string& data_dir, const Workload& workload,
                          const std::string& log_path) {
  std::vector<std::string> args = {cli,           "serve",
                                   socket_path,   "--data-dir",
                                   data_dir,      "--fsync",
                                   workload.fsync, "--checkpoint-bytes",
                                   std::to_string(workload.checkpoint_bytes)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::unlink(socket_path.c_str());
  pid_ = ::fork();
  if (pid_ < 0) return false;
  if (pid_ == 0) {
    // A load generator killed mid-run must not leave its server behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  // Ready when a connection is accepted; give up after 60 s or when the
  // child exits (e.g. a recovery failure).
  const int64_t deadline = NowNs() + 60'000'000'000LL;
  while (NowNs() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    Connection probe;
    if (probe.Connect(socket_path)) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

ServerProcess::CpuTimes ServerProcess::Cpu() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is the first, then
  // utime and stime are the 12th and 13th.
  CpuTimes t;
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return t;
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i == 12) t.user_s = std::strtod(field.c_str(), nullptr) / tick;
    if (i == 13) t.system_s = std::strtod(field.c_str(), nullptr) / tick;
  }
  return t;
}

bool ServerProcess::Reap(int timeout_ms) {
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  int status = 0;
  while (NowNs() < deadline) {
    pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || r < 0) {
      pid_ = -1;
      return r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

bool ServerProcess::Stop(Connection* conn) {
  if (pid_ <= 0) return false;
  bool clean = false;
  if (conn != nullptr &&
      conn->Send("{\"id\":-7,\"op\":\"shutdown\"}\n")) {
    std::string_view l;
    conn->ReadLine(&l);
    clean = Reap(20000);
  }
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    Reap(5000);
    clean = false;
  }
  return clean;
}

}  // namespace perfbench
