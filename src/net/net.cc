#include "net/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>

#include "obs/obs.h"
#include "util/string_util.h"

namespace termilog {
namespace net {
namespace {

// Backpressure: a connection whose buffered responses exceed this many
// bytes is not read from until they drain back under it.
constexpr size_t kWriteHighWatermark = 1 << 20;
constexpr size_t kMaxConnections = 256;  // accepts beyond it are closed
constexpr int kBacklog = 64;             // listen(2) backlog

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status SysError(const std::string& what) {
  return Status::Internal(StrCat("net: ", what, ": ", std::strerror(errno)));
}

/// Resolves a tcp: host. Listens accept "" / "*" as INADDR_ANY; connects
/// need a concrete peer. "localhost" is the IPv4 loopback; anything else
/// must be a dotted quad (no resolver dependency in the library).
Result<in_addr> ResolveHost(const std::string& host, bool for_listen) {
  in_addr addr;
  std::memset(&addr, 0, sizeof(addr));
  if (host.empty() || host == "*") {
    if (!for_listen) {
      return Status::InvalidArgument(
          "net: connect address needs a concrete host, not \"" + host + "\"");
    }
    addr.s_addr = htonl(INADDR_ANY);
    return addr;
  }
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr) != 1) {
    return Status::InvalidArgument(
        StrCat("net: host \"", host,
               "\" is not a dotted-quad IPv4 address or \"localhost\""));
  }
  return addr;
}

Result<sockaddr_un> UnixSockaddr(const std::string& path) {
  sockaddr_un sun;
  std::memset(&sun, 0, sizeof(sun));
  sun.sun_family = AF_UNIX;
  if (path.size() >= sizeof(sun.sun_path)) {
    return Status::InvalidArgument(
        StrCat("net: unix socket path too long (", path.size(), " bytes, max ",
               sizeof(sun.sun_path) - 1, "): ", path));
  }
  std::memcpy(sun.sun_path, path.c_str(), path.size() + 1);
  return sun;
}

bool IsSocket(int fd) {
  struct stat st;
  return ::fstat(fd, &st) == 0 && S_ISSOCK(st.st_mode);
}

// The one server a process routes SIGTERM/SIGINT to. The handler itself
// only loads this pointer and calls BeginDrain (an atomic store plus a
// write(2) to the wakeup pipe) — everything async-signal-safe.
std::atomic<NetServer*> g_signal_server{nullptr};

void OnDrainSignal(int) {
  const int saved_errno = errno;
  NetServer* server = g_signal_server.load(std::memory_order_relaxed);
  if (server != nullptr) server->BeginDrain();
  errno = saved_errno;
}

}  // namespace

std::string NetAddress::ToString() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return StrCat("tcp:", host.empty() ? "*" : host, ":", port);
}

Result<NetAddress> ParseNetAddress(const std::string& spec) {
  NetAddress out;
  if (spec.rfind("unix:", 0) == 0) {
    out.kind = NetAddress::Kind::kUnix;
    out.path = spec.substr(5);
    if (out.path.empty()) {
      return Status::InvalidArgument("net: unix: address needs a path");
    }
    return out;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    out.kind = NetAddress::Kind::kTcp;
    const std::string rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          "net: tcp: address needs HOST:PORT, got \"" + rest + "\"");
    }
    out.host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    if (port_text.empty() ||
        port_text.find_first_not_of("0123456789") != std::string::npos) {
      return Status::InvalidArgument(
          "net: tcp: port must be a number, got \"" + port_text + "\"");
    }
    long port = std::strtol(port_text.c_str(), nullptr, 10);
    if (port < 0 || port > 65535) {
      return Status::InvalidArgument(
          "net: tcp: port out of range: " + port_text);
    }
    out.port = static_cast<int>(port);
    return out;
  }
  return Status::InvalidArgument(
      "net: address must be unix:PATH or tcp:HOST:PORT, got \"" + spec +
      "\"");
}

std::string NetStats::ToJson() const {
  return StrCat("{\"accepted\":", accepted, ",\"closed\":", closed,
                ",\"refused\":", refused, ",\"idle_timeouts\":", idle_timeouts,
                ",\"lines\":", lines, ",\"served\":", served,
                ",\"shed\":", shed, ",\"errors\":", errors,
                ",\"overlong\":", overlong, ",\"conditions\":", conditions,
                ",\"bytes_in\":", bytes_in, ",\"bytes_out\":", bytes_out, "}");
}

// --- NetServer ----------------------------------------------------------

struct NetServer::Connection {
  int in_fd = -1;
  int out_fd = -1;  // == in_fd for a socket
  // Sockets use recv/send (MSG_NOSIGNAL: a vanished peer costs EPIPE,
  // never SIGPIPE); pipes, FIFOs and files reject them, so a peer over
  // those uses read/write.
  bool socket = true;
  // Added by AddPeer: the caller owns the fds, whose file-status flags
  // are restored on close, and the server drains when the peer closes.
  bool peer = false;
  int in_flags = 0;
  int out_flags = 0;
  int64_t id = 0;
  std::string read_buffer;   // partial line, capped at max_line_bytes
  std::string write_buffer;  // in-order responses awaiting the peer
  // Per-connection response sequencer: responses complete out of request
  // order (sheds synchronously, analyses whenever their engine tasks do),
  // but each is written only once every earlier response of this
  // connection has been.
  std::map<int64_t, std::string> pending;
  int64_t next_emit = 0;
  int64_t next_seq = 0;
  size_t line_number = 0;  // 1-based physical input line, for error names
  int64_t inflight = 0;    // admitted requests awaiting their response
  int64_t last_activity_ms = 0;
  bool discarding = false;  // dropping the rest of an over-long line
  bool peer_eof = false;
  bool paused = false;  // backpressure: write buffer over the watermark
  bool dead = false;    // I/O error; close on the next sweep

  ssize_t Read(char* buffer, size_t len) const {
    return socket ? ::recv(in_fd, buffer, len, 0) : ::read(in_fd, buffer, len);
  }
  ssize_t Write(const char* data, size_t len) const {
    return socket ? ::send(out_fd, data, len, MSG_NOSIGNAL)
                  : ::write(out_fd, data, len);
  }
};

struct NetServer::PendingRequest {
  int64_t conn_id = 0;
  int64_t conn_seq = 0;
  gen::ManifestEntry entry;
};

struct NetServer::RoutedResponse {
  int64_t conn_id = 0;
  int64_t conn_seq = 0;
  std::string line;
};

NetServer::NetServer(BatchEngine& engine, NetServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      queue_limit_(options_.serve.queue_limit < 1 ? 1
                                                  : options_.serve.queue_limit),
      max_line_bytes_(options_.serve.max_line_bytes < 1
                          ? 1
                          : options_.serve.max_line_bytes) {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) == 0) {
    wakeup_read_ = fds[0];
    wakeup_write_ = fds[1];
  }
}

NetServer::~NetServer() {
  if (processor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      processor_exit_ = true;
    }
    work_cv_.notify_all();
    processor_.join();
  }
  Cleanup();
  if (wakeup_read_ >= 0) ::close(wakeup_read_);
  if (wakeup_write_ >= 0) ::close(wakeup_write_);
  if (signal_handlers_installed_) {
    NetServer* expected = this;
    g_signal_server.compare_exchange_strong(expected, nullptr);
  }
}

Status NetServer::Listen(const NetAddress& address) {
  if (address.kind == NetAddress::Kind::kUnix) {
    Result<sockaddr_un> sun = UnixSockaddr(address.path);
    if (!sun.ok()) return sun.status();
    // Replace only a stale socket; a regular file (or anything else) at
    // the path is someone's data, not ours to clobber.
    struct stat st;
    if (::lstat(address.path.c_str(), &st) == 0) {
      if (!S_ISSOCK(st.st_mode)) {
        return Status::InvalidArgument(
            "net: refusing to replace non-socket at " + address.path);
      }
      ::unlink(address.path.c_str());
    }
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return SysError("socket(AF_UNIX)");
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&*sun), sizeof(*sun)) !=
        0) {
      Status error = SysError("bind " + address.ToString());
      ::close(fd);
      return error;
    }
    if (::listen(fd, kBacklog) != 0) {
      Status error = SysError("listen " + address.ToString());
      ::close(fd);
      return error;
    }
    listeners_.push_back(Listener{fd, address});
    return Status::Ok();
  }

  Result<in_addr> host = ResolveHost(address.host, /*for_listen=*/true);
  if (!host.ok()) return host.status();
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return SysError("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sin;
  std::memset(&sin, 0, sizeof(sin));
  sin.sin_family = AF_INET;
  sin.sin_addr = *host;
  sin.sin_port = htons(static_cast<uint16_t>(address.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sin), sizeof(sin)) != 0) {
    Status error = SysError("bind " + address.ToString());
    ::close(fd);
    return error;
  }
  if (::listen(fd, kBacklog) != 0) {
    Status error = SysError("listen " + address.ToString());
    ::close(fd);
    return error;
  }
  NetAddress bound = address;
  if (address.port == 0) {
    sockaddr_in actual;
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
      bound.port = ntohs(actual.sin_port);
    }
  }
  bound_port_ = bound.port;
  listeners_.push_back(Listener{fd, bound});
  return Status::Ok();
}

void NetServer::BeginDrain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  WakeLoop();
}

Status NetServer::InstallSignalHandlers() {
  NetServer* expected = nullptr;
  if (!g_signal_server.compare_exchange_strong(expected, this)) {
    return Status::Internal(
        "net: signal handlers already route to another server");
  }
  signal_handlers_installed_ = true;
  // A peer that disconnects mid-response turns writes into EPIPE errors
  // (handled per connection), never a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnDrainSignal;
  sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGTERM, &sa, nullptr) != 0 ||
      ::sigaction(SIGINT, &sa, nullptr) != 0) {
    return SysError("sigaction");
  }
  return Status::Ok();
}

void NetServer::ReleaseProcessing() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    hold_ = false;
  }
  work_cv_.notify_all();
}

NetStats NetServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void NetServer::WakeLoop() {
  // Async-signal-safe (BeginDrain runs under SIGTERM). A full pipe means
  // a wakeup is already pending, which is all we need.
  if (wakeup_write_ < 0) return;
  const char byte = 'w';
  while (true) {
    const ssize_t n = ::write(wakeup_write_, &byte, 1);
    if (n >= 0 || errno != EINTR) break;
  }
}

void NetServer::DrainWakeupPipe() {
  char buffer[256];
  while (true) {
    const ssize_t n = ::read(wakeup_read_, buffer, sizeof(buffer));
    if (n > 0) continue;
    if (n < 0 && errno == EINTR) continue;
    break;  // EAGAIN (empty) or EOF
  }
}

Status NetServer::AddPeer(int in_fd, int out_fd) {
  Connection conn;
  conn.in_fd = in_fd;
  conn.out_fd = out_fd;
  conn.socket = IsSocket(in_fd) && IsSocket(out_fd);
  conn.peer = true;
  // Both flags are saved before either is changed: stdin and stdout may
  // share one open file description (a terminal).
  conn.in_flags = ::fcntl(in_fd, F_GETFL);
  conn.out_flags = ::fcntl(out_fd, F_GETFL);
  if (conn.in_flags < 0 || conn.out_flags < 0) {
    return SysError("fcntl(F_GETFL)");
  }
  if (::fcntl(in_fd, F_SETFL, conn.in_flags | O_NONBLOCK) != 0 ||
      ::fcntl(out_fd, F_SETFL, conn.out_flags | O_NONBLOCK) != 0) {
    Status error = SysError("fcntl(F_SETFL)");
    ::fcntl(out_fd, F_SETFL, conn.out_flags);
    ::fcntl(in_fd, F_SETFL, conn.in_flags);
    return error;
  }
  AddConnection(std::move(conn));
  return Status::Ok();
}

void NetServer::ProcessLoop() {
  while (true) {
    PendingRequest request;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return processor_exit_ || (!hold_ && !queue_.empty()); });
      if (queue_.empty() || hold_) {
        if (processor_exit_) break;
        continue;
      }
      request = std::move(queue_.front());
      queue_.pop_front();
      ++in_engine_;
    }
    // Parsing happens here, off the poll loop; the analysis does not
    // block this thread, so the next request is taken at once.
    const int64_t conn_id = request.conn_id;
    const int64_t conn_seq = request.conn_seq;
    ServeRequest(engine_, std::move(request.entry), options_.serve.base,
                 [this, conn_id, conn_seq](std::string line,
                                           ServeAnswer answer) {
                   Answer(conn_id, conn_seq, std::move(line), answer);
                 });
  }
}

// Runs on an engine worker, or on the processing thread for an error
// answer. The response is queued and the wakeup byte written under mu_,
// so by the time the event loop (or Run's epilogue) can see the response,
// this call touches the server no more.
void NetServer::Answer(int64_t conn_id, int64_t conn_seq, std::string line,
                       ServeAnswer answer) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (answer == ServeAnswer::kError) {
      ++stats_.errors;
    } else {
      ++stats_.served;
      if (answer == ServeAnswer::kConditionsReport) ++stats_.conditions;
    }
  }
  if (answer == ServeAnswer::kError) {
    TERMILOG_COUNTER("net.req.errors", 1);
  } else {
    TERMILOG_COUNTER("net.req.served", 1);
  }
  std::lock_guard<std::mutex> lock(mu_);
  responses_.push_back(RoutedResponse{conn_id, conn_seq, std::move(line)});
  --in_engine_;
  WakeLoop();
  answered_cv_.notify_all();
}

Status NetServer::Run() {
  if (listeners_.empty() && connections_.empty()) {
    return Status::Internal("net: Run() before Listen() or AddPeer()");
  }
  if (wakeup_read_ < 0 || wakeup_write_ < 0) {
    return Status::Internal("net: wakeup pipe unavailable");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    hold_ = options_.hold_processing;
    processor_exit_ = false;
  }
  processor_ = std::thread(&NetServer::ProcessLoop, this);

  std::vector<pollfd> fds;
  std::vector<int64_t> fd_conn;
  Status result = Status::Ok();
  while (true) {
    if (!draining_ && drain_requested_.load(std::memory_order_relaxed)) {
      // Drain: stop accepting (listeners close now), stop reading
      // (connections lose POLLIN below), finish what was admitted.
      draining_ = true;
      CloseListeners();
    }
    if (draining_) {
      bool done;
      {
        std::lock_guard<std::mutex> lock(mu_);
        done = outstanding_ == 0;
      }
      if (done) break;  // every admitted request answered and routed
    }

    fds.clear();
    fd_conn.clear();
    fds.push_back(pollfd{wakeup_read_, POLLIN, 0});
    fd_conn.push_back(0);
    size_t listener_fds = 0;
    if (!draining_) {
      for (const Listener& listener : listeners_) {
        fds.push_back(pollfd{listener.fd, POLLIN, 0});
        fd_conn.push_back(0);
        ++listener_fds;
      }
    }
    for (auto& [id, conn] : connections_) {
      // Each fd is polled only while it has work: a pipe or socket whose
      // peer is gone reports POLLHUP on every poll. A socket's one fd may
      // appear twice, once per direction.
      if (!draining_ && !conn.paused && !conn.peer_eof && !conn.dead) {
        fds.push_back(pollfd{conn.in_fd, POLLIN, 0});
        fd_conn.push_back(id);
      }
      if (!conn.write_buffer.empty() && !conn.dead) {
        fds.push_back(pollfd{conn.out_fd, POLLOUT, 0});
        fd_conn.push_back(id);
      }
    }

    const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                         PollTimeoutMs(NowMs()));
    if (n < 0) {
      if (errno == EINTR) continue;
      result = SysError("poll");
      break;
    }
    const int64_t now_ms = NowMs();
    if (fds[0].revents & POLLIN) DrainWakeupPipe();
    RouteResponses();
    for (size_t i = 0; i < listener_fds; ++i) {
      if (fds[1 + i].revents & POLLIN) AcceptReady(fds[1 + i].fd);
    }
    for (size_t i = 1 + listener_fds; i < fds.size(); ++i) {
      auto it = connections_.find(fd_conn[i]);
      if (it == connections_.end()) continue;
      Connection& conn = it->second;
      if (fds[i].revents & POLLIN) HandleReadable(conn);
      if (fds[i].revents & POLLOUT) TryWrite(conn);
      if (fds[i].revents & (POLLERR | POLLNVAL)) conn.dead = true;
      if ((fds[i].revents & POLLHUP) && !(fds[i].revents & POLLIN)) {
        conn.peer_eof = true;
      }
    }
    CloseFinishedConnections(now_ms);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    processor_exit_ = true;
  }
  work_cv_.notify_all();
  processor_.join();
  {
    // A poll failure can end the loop while submitted requests are still
    // in the engine; their callbacks touch this server.
    std::unique_lock<std::mutex> lock(mu_);
    answered_cv_.wait(lock, [this] { return in_engine_ == 0; });
  }
  RouteResponses();
  if (result.ok()) FinalFlush();
  Cleanup();
  return result;
}

int NetServer::PollTimeoutMs(int64_t now_ms) const {
  if (options_.idle_timeout_ms <= 0 || connections_.empty() || draining_) {
    return -1;  // wakeup pipe interrupts any wait
  }
  int64_t next = std::numeric_limits<int64_t>::max();
  for (const auto& [id, conn] : connections_) {
    if (conn.inflight > 0) continue;  // not idle-closable while waiting
    next = std::min(next,
                    conn.last_activity_ms + options_.idle_timeout_ms - now_ms);
  }
  if (next == std::numeric_limits<int64_t>::max()) return -1;
  return static_cast<int>(std::clamp<int64_t>(next, 0, 1000));
}

void NetServer::AcceptReady(int listen_fd) {
  while (true) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or a transient per-connection error (ECONNABORTED)
    }
    if (draining_ || connections_.size() >= kMaxConnections) {
      ::close(fd);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.refused;
      }
      TERMILOG_COUNTER("net.conn.refused", 1);
      continue;
    }
    Connection conn;
    conn.in_fd = fd;
    conn.out_fd = fd;
    AddConnection(std::move(conn));
  }
}

void NetServer::AddConnection(Connection conn) {
  conn.id = next_connection_id_++;
  conn.last_activity_ms = NowMs();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
  }
  TERMILOG_COUNTER("net.conn.accepted", 1);
  connections_.emplace(conn.id, std::move(conn));
}

void NetServer::HandleReadable(Connection& conn) {
  char buffer[65536];
  while (true) {
    const ssize_t n = conn.Read(buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.dead = true;
      break;
    }
    if (n == 0) {
      conn.peer_eof = true;
      break;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.bytes_in += n;
    }
    TERMILOG_COUNTER("net.bytes.in", n);
    conn.last_activity_ms = NowMs();
    ConsumeInput(conn, buffer, static_cast<size_t>(n));
    // Backpressure can engage mid-read (a burst of sheds filled the write
    // buffer): stop pulling bytes; poll resumes reading after the peer
    // drains.
    if (conn.paused || conn.dead) break;
  }
}

void NetServer::ConsumeInput(Connection& conn, const char* data, size_t len) {
  size_t i = 0;
  while (i < len && !conn.dead) {
    const char* newline =
        static_cast<const char*>(std::memchr(data + i, '\n', len - i));
    const size_t end = newline ? static_cast<size_t>(newline - data) : len;
    if (conn.discarding) {
      // Dropping the remainder of an already-answered over-long line.
      if (newline) conn.discarding = false;
      i = newline ? end + 1 : len;
      continue;
    }
    const size_t take = end - i;
    if (conn.read_buffer.size() + take > max_line_bytes_) {
      ++conn.line_number;
      conn.read_buffer.clear();
      conn.discarding = newline == nullptr;
      HandleOverlong(conn);
      i = newline ? end + 1 : len;
      continue;
    }
    conn.read_buffer.append(data + i, take);
    i = newline ? end + 1 : len;
    if (newline) {
      ++conn.line_number;
      std::string line;
      line.swap(conn.read_buffer);
      HandleLine(conn, line);
    }
  }
}

void NetServer::HandleOverlong(Connection& conn) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.lines;
    ++stats_.errors;
    ++stats_.overlong;
  }
  TERMILOG_COUNTER("net.line.overlong", 1);
  TERMILOG_COUNTER("net.req.errors", 1);
  const int64_t seq = conn.next_seq++;
  EmitToConnection(
      conn, seq,
      ServeErrorLine(StrCat("manifest:", conn.line_number),
                     OverlongLineError(conn.line_number, max_line_bytes_)));
}

void NetServer::HandleLine(Connection& conn, const std::string& line) {
  const std::string_view stripped = StripWhitespace(line);
  if (stripped.empty()) return;
  gen::ManifestEntry entry = gen::ParseManifestLine(stripped, conn.line_number);
  if (entry.header) return;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.lines;
  }
  TERMILOG_COUNTER("net.req.lines", 1);
  const int64_t seq = conn.next_seq++;
  if (!entry.error.ok()) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.errors;
    }
    TERMILOG_COUNTER("net.req.errors", 1);
    EmitToConnection(conn, seq, EntryErrorLine(entry, entry.error));
    return;
  }
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (outstanding_ < queue_limit_) {
      queue_.push_back(PendingRequest{conn.id, seq, std::move(entry)});
      ++outstanding_;
      admitted = true;
    }
  }
  if (admitted) {
    ++conn.inflight;
    work_cv_.notify_one();
  } else {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.shed;
    }
    TERMILOG_COUNTER("net.req.shed", 1);
    EmitToConnection(conn, seq, ServeShedLine(entry.name, queue_limit_));
  }
}

void NetServer::EmitToConnection(Connection& conn, int64_t seq,
                                 std::string line) {
  conn.pending.emplace(seq, std::move(line));
  while (true) {
    auto it = conn.pending.find(conn.next_emit);
    if (it == conn.pending.end()) break;
    conn.write_buffer.append(it->second);
    conn.write_buffer.push_back('\n');
    conn.pending.erase(it);
    ++conn.next_emit;
  }
  TryWrite(conn);
  if (conn.write_buffer.size() > kWriteHighWatermark) {
    conn.paused = true;
  }
}

void NetServer::TryWrite(Connection& conn) {
  while (!conn.write_buffer.empty() && !conn.dead) {
    const ssize_t n =
        conn.Write(conn.write_buffer.data(), conn.write_buffer.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.dead = true;  // EPIPE/ECONNRESET: costs this connection only
      break;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.bytes_out += n;
    }
    TERMILOG_COUNTER("net.bytes.out", n);
    conn.write_buffer.erase(0, static_cast<size_t>(n));
    conn.last_activity_ms = NowMs();
  }
  if (conn.paused &&
      conn.write_buffer.size() <= kWriteHighWatermark) {
    conn.paused = false;
  }
}

void NetServer::RouteResponses() {
  std::vector<RoutedResponse> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch.swap(responses_);
    outstanding_ -= static_cast<int64_t>(batch.size());
  }
  for (RoutedResponse& response : batch) {
    auto it = connections_.find(response.conn_id);
    if (it == connections_.end()) continue;  // peer already gone
    Connection& conn = it->second;
    --conn.inflight;
    EmitToConnection(conn, response.conn_seq, std::move(response.line));
  }
}

void NetServer::CloseFinishedConnections(int64_t now_ms) {
  std::vector<int64_t> to_close;
  for (auto& [id, conn] : connections_) {
    const bool flushed = conn.inflight == 0 && conn.pending.empty() &&
                         conn.write_buffer.empty();
    if (conn.dead) {
      to_close.push_back(id);
      continue;
    }
    if (conn.peer_eof && flushed) {
      to_close.push_back(id);
      continue;
    }
    if (draining_) {
      if (flushed) to_close.push_back(id);
      continue;
    }
    if (options_.idle_timeout_ms > 0 && conn.inflight == 0 &&
        now_ms - conn.last_activity_ms >= options_.idle_timeout_ms) {
      // Covers both silent peers and peers that stopped draining
      // responses (write progress also counts as activity).
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.idle_timeouts;
      }
      TERMILOG_COUNTER("net.conn.idle_timeout", 1);
      to_close.push_back(id);
    }
  }
  for (const int64_t id : to_close) CloseConnection(id);
}

void NetServer::CloseConnection(int64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  const Connection& conn = it->second;
  if (conn.peer) {
    // stdin and stdout are shared with the parent shell: hand them back
    // as found. The server's work ends with its peer's.
    ::fcntl(conn.out_fd, F_SETFL, conn.out_flags);
    ::fcntl(conn.in_fd, F_SETFL, conn.in_flags);
    drain_requested_.store(true, std::memory_order_relaxed);
  } else {
    ::close(conn.in_fd);
  }
  connections_.erase(it);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.closed;
  }
  TERMILOG_COUNTER("net.conn.closed", 1);
}

void NetServer::FinalFlush() {
  // Drain epilogue: every response has been routed into a write buffer;
  // push the buffered bytes to each peer, bounded so one stuck peer
  // cannot hold the exit hostage.
  const int64_t deadline_ms = NowMs() + 5000;
  while (true) {
    std::vector<pollfd> fds;
    std::vector<int64_t> ids;
    for (auto& [id, conn] : connections_) {
      if (conn.dead || conn.write_buffer.empty()) continue;
      fds.push_back(pollfd{conn.out_fd, POLLOUT, 0});
      ids.push_back(id);
    }
    if (fds.empty()) return;
    const int64_t left = deadline_ms - NowMs();
    if (left <= 0) return;
    const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                         static_cast<int>(std::min<int64_t>(left, 200)));
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      auto it = connections_.find(ids[i]);
      if (it == connections_.end()) continue;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        it->second.dead = true;
        continue;
      }
      if (fds[i].revents & POLLOUT) TryWrite(it->second);
    }
  }
}

void NetServer::CloseListeners() {
  for (Listener& listener : listeners_) {
    if (listener.fd >= 0) {
      ::close(listener.fd);
      listener.fd = -1;
    }
    if (listener.address.kind == NetAddress::Kind::kUnix) {
      ::unlink(listener.address.path.c_str());
    }
  }
}

void NetServer::Cleanup() {
  std::vector<int64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) ids.push_back(id);
  for (const int64_t id : ids) CloseConnection(id);
  CloseListeners();
}

// --- Load client --------------------------------------------------------

namespace {

Result<int> ConnectTo(const NetAddress& address) {
  int fd = -1;
  if (address.kind == NetAddress::Kind::kUnix) {
    Result<sockaddr_un> sun = UnixSockaddr(address.path);
    if (!sun.ok()) return sun.status();
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return SysError("socket(AF_UNIX)");
    while (::connect(fd, reinterpret_cast<const sockaddr*>(&*sun),
                     sizeof(*sun)) != 0) {
      if (errno == EINTR) continue;
      if (errno == EISCONN) break;
      Status error = SysError("connect " + address.ToString());
      ::close(fd);
      return error;
    }
    return fd;
  }
  Result<in_addr> host = ResolveHost(address.host, /*for_listen=*/false);
  if (!host.ok()) return host.status();
  fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return SysError("socket(AF_INET)");
  sockaddr_in sin;
  std::memset(&sin, 0, sizeof(sin));
  sin.sin_family = AF_INET;
  sin.sin_addr = *host;
  sin.sin_port = htons(static_cast<uint16_t>(address.port));
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&sin),
                   sizeof(sin)) != 0) {
    if (errno == EINTR) continue;
    if (errno == EISCONN) break;
    Status error = SysError("connect " + address.ToString());
    ::close(fd);
    return error;
  }
  return fd;
}

bool SendAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Blocking buffered line reader over one socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // 1: a line (without its newline), 0: clean EOF, -1: socket error.
  int ReadLine(std::string* line) {
    line->clear();
    while (true) {
      const size_t newline = buffer_.find('\n', pos_);
      if (newline != std::string::npos) {
        line->assign(buffer_, pos_, newline - pos_);
        pos_ = newline + 1;
        return 1;
      }
      buffer_.erase(0, pos_);
      pos_ = 0;
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
      if (n == 0) return 0;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
  size_t pos_ = 0;
};

}  // namespace

Result<LoadClientStats> RunLoadClient(const NetAddress& address,
                                      const std::vector<std::string>& lines,
                                      const LoadClientOptions& options) {
  // Request lines only: blanks and {"gen_manifest":...} headers carry no
  // request, so they are not sent (the server would skip them anyway and
  // the response count would no longer match the send count).
  std::vector<const std::string*> requests;
  requests.reserve(lines.size());
  for (const std::string& line : lines) {
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) continue;
    const gen::ManifestEntry entry = gen::ParseManifestLine(stripped, 1);
    if (entry.header) continue;
    requests.push_back(&line);
  }

  const int clients = std::max(1, options.clients);
  const size_t window = static_cast<size_t>(std::max(1, options.window));
  struct PerClient {
    LoadClientStats stats;
    std::vector<std::string> responses;
    Status error = Status::Ok();
  };
  std::vector<PerClient> per(static_cast<size_t>(clients));

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int k = 0; k < clients; ++k) {
    threads.emplace_back([&, k] {
      PerClient& me = per[static_cast<size_t>(k)];
      // Round-robin deal: client k replays lines k, k+clients, ...
      std::vector<const std::string*> slice;
      for (size_t i = static_cast<size_t>(k); i < requests.size();
           i += static_cast<size_t>(clients)) {
        slice.push_back(requests[i]);
      }
      if (slice.empty()) return;
      Result<int> connected = ConnectTo(address);
      if (!connected.ok()) {
        me.error = connected.status();
        return;
      }
      const int fd = *connected;
      std::vector<std::chrono::steady_clock::time_point> send_time(
          slice.size());
      LineReader reader(fd);
      std::string response;
      size_t sent = 0;
      size_t received = 0;
      bool half_closed = false;
      bool dead = false;
      while (received < slice.size() && !dead) {
        while (sent < slice.size() && sent - received < window) {
          std::string payload = *slice[sent];
          payload.push_back('\n');
          send_time[sent] = std::chrono::steady_clock::now();
          if (!SendAll(fd, payload.data(), payload.size())) {
            dead = true;
            break;
          }
          ++me.stats.sent;
          ++sent;
        }
        if (dead) break;
        if (sent == slice.size() && !half_closed) {
          ::shutdown(fd, SHUT_WR);
          half_closed = true;
        }
        // Responses arrive in this connection's request order, so
        // response `received` pairs with request `received`.
        if (reader.ReadLine(&response) <= 0) break;
        const auto now = std::chrono::steady_clock::now();
        me.stats.latencies_us.push_back(
            std::chrono::duration_cast<std::chrono::microseconds>(
                now - send_time[received])
                .count());
        ++me.stats.received;
        ++received;
        if (response.find("\"ok\":false") != std::string::npos) {
          ++me.stats.errors;
        }
        if (response.find("server overloaded: waiting room full") !=
            std::string::npos) {
          ++me.stats.shed;
        }
        if (options.responses != nullptr) {
          me.responses.push_back(response);
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  LoadClientStats total;
  total.elapsed_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          elapsed)
          .count();
  for (PerClient& client : per) {
    if (!client.error.ok()) return client.error;
    total.sent += client.stats.sent;
    total.received += client.stats.received;
    total.shed += client.stats.shed;
    total.errors += client.stats.errors;
    total.latencies_us.insert(total.latencies_us.end(),
                              client.stats.latencies_us.begin(),
                              client.stats.latencies_us.end());
    if (options.responses != nullptr) {
      options.responses->insert(options.responses->end(),
                                std::make_move_iterator(
                                    client.responses.begin()),
                                std::make_move_iterator(client.responses.end()));
    }
  }
  return total;
}

}  // namespace net
}  // namespace termilog
