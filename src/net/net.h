#ifndef TERMILOG_NET_NET_H_
#define TERMILOG_NET_NET_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/serve.h"
#include "util/status.h"

namespace termilog {
namespace net {

/// A parsed listen/connect address. Two transports (docs/serve.md):
///   unix:PATH        — a Unix-domain stream socket at PATH;
///   tcp:HOST:PORT    — IPv4. HOST is a dotted quad, "localhost", or
///                      "*" / "" for INADDR_ANY (listen only). PORT 0
///                      asks the kernel for an ephemeral port; the bound
///                      port is reported by NetServer::port().
struct NetAddress {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  // unix
  std::string host;  // tcp
  int port = 0;      // tcp

  /// The canonical "unix:..."/"tcp:..." spelling, for logs.
  std::string ToString() const;
};

/// Parses "unix:PATH" or "tcp:HOST:PORT". Rejects empty paths, missing
/// colons, non-numeric or out-of-range ports.
Result<NetAddress> ParseNetAddress(const std::string& spec);

/// Options for the server. The request protocol itself — JSONL manifest
/// entries in, one report line out per request — is ServeOptions'
/// (`serve`); everything here is transport.
struct NetServerOptions {
  ServeOptions serve;
  /// Close a connection with no activity — no bytes read or written and
  /// no request in flight — for this long. 0 disables the timeout.
  int64_t idle_timeout_ms = 0;
  /// Test hook: when true the processing thread holds every admitted
  /// request until ReleaseProcessing(), making the shed/accept split a
  /// pure function of queue_limit. Production serving leaves false.
  bool hold_processing = false;
};

/// Transport + protocol counters. Snapshot via NetServer::stats();
/// exported as one JSON object on the CLI's stderr when the server
/// drains, for --listen and --serve alike.
struct NetStats {
  int64_t accepted = 0;       // connections accepted
  int64_t closed = 0;         // connections closed (any reason)
  int64_t refused = 0;        // accepts closed at the connection cap
  int64_t idle_timeouts = 0;  // closes due to idle_timeout_ms
  int64_t lines = 0;          // request lines seen (blank/header excluded)
  int64_t served = 0;         // requests analyzed to completion
  int64_t shed = 0;           // requests answered with the overload shape
  int64_t errors = 0;         // structured per-request error responses
  int64_t overlong = 0;       // subset of errors: lines over the cap
  int64_t conditions = 0;     // subset of served: conditions sweeps
  int64_t bytes_in = 0;       // bytes read off connections
  int64_t bytes_out = 0;      // bytes written to connections

  std::string ToJson() const;
};

/// The one transport loop of serve mode (docs/serve.md): socket
/// listeners (--listen) and the stdio peer (--serve FIFO|-, AddPeer) are
/// connections of the same loop.
///
/// One poll(2) event-loop thread (the caller of Run) owns every
/// connection: accepts, framing, per-connection response sequencing,
/// write buffering, timeouts. One processing thread takes admitted
/// requests from the shared waiting room one at a time, parses them and
/// submits them through ServeRequest — the same engine path, request
/// kinds, and response bytes as --batch — without waiting for the
/// analysis. Engine workers hand each response back to the event loop
/// through a queue plus a self-pipe wakeup.
///
/// Per connection, responses are written strictly in that connection's
/// request order. Across connections no order is promised (requests from
/// different clients interleave in the waiting room), but each request's
/// response bytes are identical to what --batch would print for the same
/// entry.
///
/// Overload: admission counts every admitted-but-unanswered request,
/// waiting or in the engine, against queue_limit; beyond it the request
/// is answered immediately with the deterministic RESOURCE_EXHAUSTED shed
/// shape (ServeShedLine) — bounded memory and bounded latency, never an
/// unbounded queue.
///
/// Drain (SIGTERM/SIGINT via InstallSignalHandlers, or BeginDrain): the
/// server stops accepting and stops reading, finishes every admitted
/// request, flushes buffered responses to each peer, closes, and Run
/// returns OK — the caller then flushes the persistent store and exits 0.
///
/// All socket I/O is EINTR-safe and SIGPIPE-proof (MSG_NOSIGNAL; the CLI
/// additionally ignores SIGPIPE): a peer that disconnects mid-response
/// costs one connection, never the server.
///
/// No engine callback touches the server once Run can observe that the
/// callback's response arrived, and Run returns only after every request
/// it submitted has answered, so the server may be destroyed as soon as
/// Run returns.
class NetServer {
 public:
  explicit NetServer(BatchEngine& engine, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds and listens on `address`. May be called more than once before
  /// Run (e.g. one unix: and one tcp: listener on the same server). A
  /// unix: path that exists is replaced only if it is a socket; anything
  /// else at the path is an error.
  Status Listen(const NetAddress& address);

  /// The port of the last tcp: listener (after Listen resolved port 0),
  /// or 0 when none.
  int port() const { return bound_port_; }

  /// Adds one connection that reads requests from `in_fd` and writes
  /// responses to `out_fd` (stdin/stdout, a FIFO, files, a socketpair).
  /// Pipes, FIFOs and files are served with read/write, sockets with
  /// recv/send. The fds are made non-blocking while served; the caller
  /// keeps ownership, and their original file-status flags come back
  /// when the peer closes. When the peer closes — end of input and every
  /// response written, or a write error — the server drains and Run
  /// returns. Call before Run.
  Status AddPeer(int in_fd, int out_fd);

  /// Runs the event loop until a drain completes. Blocks the calling
  /// thread; spawns and joins the processing thread internally. An error
  /// without a listener or a peer.
  Status Run();

  /// Requests a graceful drain. Async-signal-safe (an atomic flag and a
  /// write(2) to the wakeup pipe) and callable from any thread.
  void BeginDrain();

  /// Routes SIGTERM/SIGINT to BeginDrain() and ignores SIGPIPE. One
  /// server per process may install handlers; a second install fails.
  Status InstallSignalHandlers();

  /// Releases requests held by NetServerOptions::hold_processing.
  void ReleaseProcessing();

  NetStats stats() const;

 private:
  struct Connection;
  struct PendingRequest;
  struct RoutedResponse;

  void ProcessLoop();
  void Answer(int64_t conn_id, int64_t conn_seq, std::string line,
              ServeAnswer answer);
  void WakeLoop();
  void DrainWakeupPipe();
  void AcceptReady(int listen_fd);
  void AddConnection(Connection conn);
  void HandleReadable(Connection& conn);
  void ConsumeInput(Connection& conn, const char* data, size_t len);
  void HandleOverlong(Connection& conn);
  void HandleLine(Connection& conn, const std::string& line);
  void EmitToConnection(Connection& conn, int64_t seq, std::string line);
  void TryWrite(Connection& conn);
  void RouteResponses();
  void CloseFinishedConnections(int64_t now_ms);
  void CloseConnection(int64_t id);
  void FinalFlush();
  void CloseListeners();
  void Cleanup();
  int PollTimeoutMs(int64_t now_ms) const;

  BatchEngine& engine_;
  const NetServerOptions options_;
  const int queue_limit_;
  const size_t max_line_bytes_;

  struct Listener {
    int fd = -1;
    NetAddress address;
  };
  std::vector<Listener> listeners_;
  int bound_port_ = 0;
  int wakeup_read_ = -1;
  int wakeup_write_ = -1;

  // Event-loop-owned: only the Run() thread touches connections.
  std::map<int64_t, Connection> connections_;
  int64_t next_connection_id_ = 1;
  bool draining_ = false;

  // Shared waiting room and response queue (event loop <-> processor <->
  // engine workers).
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable answered_cv_;  // in_engine_ fell
  std::deque<PendingRequest> queue_;
  std::vector<RoutedResponse> responses_;
  int64_t outstanding_ = 0;  // admitted, response not yet routed
  int64_t in_engine_ = 0;    // handed to ServeRequest, not yet answered
  bool processor_exit_ = false;
  bool hold_ = false;
  std::thread processor_;

  std::atomic<bool> drain_requested_{false};
  bool signal_handlers_installed_ = false;

  mutable std::mutex stats_mu_;
  NetStats stats_;
};

/// Options for the built-in load client (termilog_cli --connect).
struct LoadClientOptions {
  /// Concurrent connections. Manifest lines are dealt round-robin:
  /// client k sends lines k, k+clients, k+2*clients, ...
  int clients = 1;
  /// Requests each client keeps in flight (windowed pipelining).
  int window = 8;
  /// When set, every response line is appended here (unordered across
  /// clients; in request order within one client's slice).
  std::vector<std::string>* responses = nullptr;
};

/// What the load run observed. Latency is send-to-response per request,
/// microseconds, measured under pipelining (so it includes server queue
/// time — the service latency a real client sees).
struct LoadClientStats {
  int64_t sent = 0;
  int64_t received = 0;
  int64_t shed = 0;    // responses matching the overload shape
  int64_t errors = 0;  // responses with "ok":false (shed included)
  double elapsed_ms = 0;
  std::vector<int64_t> latencies_us;
};

/// Replays manifest request lines against a running server: `clients`
/// connections, `window` requests pipelined per connection, each
/// connection's responses read back in order. Blank and header lines in
/// `lines` are skipped. Returns transport-level failure (cannot connect);
/// per-request errors and sheds are counted in the stats, not failures,
/// and a server that closes early (drain, kill) leaves received < sent
/// rather than failing the run.
Result<LoadClientStats> RunLoadClient(const NetAddress& address,
                                      const std::vector<std::string>& lines,
                                      const LoadClientOptions& options);

}  // namespace net
}  // namespace termilog

#endif  // TERMILOG_NET_NET_H_
