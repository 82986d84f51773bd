#include "perfbench/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/net/wire.h"
#include "src/obs/json.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ----------------------------------------------------------- the server

std::string ServerProcess::Start(const std::string& binary,
                                 const std::vector<std::string>& flags,
                                 const std::string& log_path) {
  int out[2];
  if (pipe(out) != 0) return "pipe: " + std::string(std::strerror(errno));
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    close(out[0]);
    close(out[1]);
    return "cannot open " + log_path;
  }
  std::vector<std::string> args = {binary};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    close(out[0]);
    close(out[1]);
    close(log_fd);
    return "fork: " + std::string(std::strerror(errno));
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, however that ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == 1) _exit(127);
    dup2(out[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    close(out[0]);
    close(out[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out[1]);
  close(log_fd);
  pid_ = pid;
  stdout_fd_ = out[0];

  // The first stdout line is "bagalgd listening on HOST:PORT".
  std::string line;
  const uint64_t deadline = NowNs() + 30'000'000'000ull;
  while (line.find('\n') == std::string::npos && NowNs() < deadline) {
    pollfd p{out[0], POLLIN, 0};
    if (poll(&p, 1, 100) <= 0) continue;
    char buf[512];
    const ssize_t n = read(out[0], buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = line.find(':');
  if (line.rfind("bagalgd listening on ", 0) != 0 ||
      colon == std::string::npos) {
    Stop();
    return "bagalgd did not start: " + line;
  }
  port_ = std::atoi(line.c_str() + colon + 1);
  return port_ > 0 ? "" : "bad listening line: " + line;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  int status = 0;
  const uint64_t deadline = NowNs() + 30'000'000'000ull;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (NowNs() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
}

double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double CpuSeconds(const std::string& pid) {
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  if (pid != "self" &&
      clock_getcpuclockid(static_cast<pid_t>(std::stol(pid)), &clock) != 0) {
    return 0;
  }
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// ------------------------------------------------------------ requests

std::string StatementRequest(const std::string& session,
                             const std::string& line, Wire wire) {
  std::string body;
  const char* content_type = "application/json";
  if (wire == Wire::kJson) {
    body = "{\"session\":" + bagalg::obs::JsonQuote(session) +
           ",\"statement\":" + bagalg::obs::JsonQuote(line) + "}";
  } else {
    bagalg::net::WireStatementRequest request;
    request.session = session;
    request.statement = line;
    body = bagalg::net::EncodeFrame(
        bagalg::net::WireFormat::kBinary,
        bagalg::net::EncodeStatementRequest(request));
    content_type = "application/x-bag1";
  }
  return "POST /v1/statement HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: " +
         std::string(content_type) +
         "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
         body;
}

// ---------------------------------------------------------- connection

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

bool Connection::Open(int port) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
}

bool Connection::Flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = send(fd_, out_.data() + out_off_,
                           out_.size() - out_off_, MSG_NOSIGNAL);
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    out_off_ += static_cast<size_t>(n);
  }
  out_.clear();
  out_off_ = 0;
  return true;
}

bool Connection::Fill() {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return false;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

namespace {

bool HeaderIs(std::string_view line, std::string_view name) {
  if (line.size() < name.size()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) != name[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

int Connection::Take(HttpResponse* response) {
  const std::string_view in(in_.data() + in_off_, in_.size() - in_off_);
  const size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return 0;
  if (in.rfind("HTTP/1.1 ", 0) != 0) return -1;
  const int status = std::atoi(in.data() + 9);
  bool chunked = false;
  size_t length = 0;
  size_t pos = in.find("\r\n") + 2;
  while (pos < head_end) {
    const size_t eol = in.find("\r\n", pos);
    const std::string_view line = in.substr(pos, eol - pos);
    if (HeaderIs(line, "content-length:")) {
      length = std::strtoull(line.data() + 15, nullptr, 10);
    } else if (HeaderIs(line, "transfer-encoding:") &&
               line.find("chunked") != std::string_view::npos) {
      chunked = true;
    }
    pos = eol + 2;
  }
  const size_t body_start = head_end + 4;
  size_t end = 0;
  if (!chunked) {
    if (in.size() < body_start + length) return 0;
    response->body.assign(in.substr(body_start, length));
    end = body_start + length;
  } else {
    // Scan the chunk headers first; copy only once the body is complete.
    std::vector<std::pair<size_t, size_t>> chunks;
    pos = body_start;
    for (;;) {
      const size_t eol = in.find("\r\n", pos);
      if (eol == std::string_view::npos) return 0;
      char* parsed = nullptr;
      const size_t size = std::strtoull(in.data() + pos, &parsed, 16);
      if (parsed == in.data() + pos) return -1;
      pos = eol + 2;
      if (in.size() < pos + size + 2) return 0;
      if (size == 0) break;
      chunks.emplace_back(pos, size);
      pos += size + 2;
    }
    end = pos + 2;
    response->body.clear();
    for (const auto& [at, size] : chunks) {
      response->body.append(in.substr(at, size));
    }
  }
  response->status = status;
  response->wire_bytes = end;
  in_off_ += end;
  if (in_off_ == in_.size()) {
    in_.clear();
    in_off_ = 0;
  } else if (in_off_ > (1u << 20)) {
    in_.erase(0, in_off_);
    in_off_ = 0;
  }
  return 1;
}

std::string AwaitResponse(Connection* conn, HttpResponse* response,
                          int timeout_ms) {
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(timeout_ms) * 1'000'000ull;
  for (;;) {
    if (!conn->Flush()) return "write failed";
    const int taken = conn->Take(response);
    if (taken == 1) return "";
    if (taken < 0) return "malformed response";
    if (NowNs() > deadline) return "timed out";
    pollfd p{conn->fd(),
             static_cast<short>(POLLIN | (conn->WantsWrite() ? POLLOUT : 0)),
             0};
    poll(&p, 1, 100);
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !conn->Fill()) {
      if (conn->Take(response) == 1) return "";
      return "connection closed";
    }
  }
}

std::string HttpGet(int port, const std::string& path) {
  Connection conn;
  if (!conn.Open(port)) return "";
  conn.Queue("GET " + path +
             " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n");
  HttpResponse response;
  if (!AwaitResponse(&conn, &response).empty() || response.status != 200) {
    return "";
  }
  return response.body;
}

}  // namespace perfbench
