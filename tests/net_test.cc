// Transport suite (docs/serve.md, src/net/): the poll event loop behind
// --listen and --serve. Contracts under test: per-request responses carry
// the --batch protocol, each connection's responses come back in its own
// request order however many clients interleave, overload sheds
// deterministically through the shared waiting room, torn/over-long
// frames get structured errors without killing the connection (or the
// server), idle peers are disconnected, a light request is not held
// behind a heavy one, and a graceful drain answers everything admitted
// and leaves an attached store flushed and clean. The ServeTest cases
// drive the stdio peer (--serve FIFO|-) over files: the JSONL protocol,
// per-line error isolation, strict response ordering, and deterministic
// shedding.
//
// Lives in its own binary (label "net") so scripts/check.sh --serve can
// drive it through the ASan and TSan trees: the event loop, processing
// thread and engine-callback handoffs are exactly where a lifetime or
// lock-order mistake would surface.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus.h"
#include "engine/engine.h"
#include "net/net.h"
#include "persist/store.h"
#include "util/json.h"
#include "util/string_util.h"

namespace termilog {
namespace {

namespace fs = std::filesystem;

constexpr const char* kAppendSource =
    ":- mode(app(b,f,f)). app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).";

std::string RequestLine(const std::string& name) {
  return "{\"name\":\"" + name + "\",\"source\":\"" + kAppendSource +
         "\",\"query\":\"app(b,f,f)\"}";
}

std::string SocketPath(const char* name) {
  // Unix socket paths are length-limited (~108 bytes); /tmp keeps them
  // short regardless of where the test tempdir lives.
  return "/tmp/termilog_net_" + std::to_string(::getpid()) + "_" + name;
}

struct Response {
  std::string name;
  bool ok = false;
  std::string error;
};

Response ParseResponse(const std::string& line) {
  Response response;
  Result<JsonValue> parsed = ParseJson(line);
  EXPECT_TRUE(parsed.ok()) << line;
  if (!parsed.ok()) return response;
  EXPECT_TRUE(parsed->Has("name")) << line;
  EXPECT_TRUE(parsed->Has("ok")) << line;
  response.name = parsed->At("name").StringOr("");
  response.ok = parsed->At("ok").BoolOr(false);
  response.error = parsed->At("error").StringOr("");
  return response;
}

// A server on its own thread: tests talk to it over real sockets and
// stop it the way production does — BeginDrain (the SIGTERM path) and a
// join on Run().
class TestServer {
 public:
  explicit TestServer(net::NetServerOptions options,
                      EngineOptions engine_options = EngineOptions{
                          /*jobs=*/2, /*use_cache=*/true})
      : engine_(engine_options), server_(engine_, std::move(options)) {}

  ~TestServer() {
    if (thread_.joinable()) Stop();
  }

  Status Listen(const std::string& spec) {
    Result<net::NetAddress> address = net::ParseNetAddress(spec);
    if (!address.ok()) return address.status();
    return server_.Listen(*address);
  }

  void Start() {
    thread_ = std::thread([this] { run_status_ = server_.Run(); });
  }

  Status Stop() {
    server_.BeginDrain();
    return Wait();
  }

  // Joins a server that ends on its own, as one with a peer does once
  // the peer closes.
  Status Wait() {
    thread_.join();
    return run_status_;
  }

  // Spins until `ready(stats())` holds (deadline 10s), for tests that
  // need the server to have admitted/observed something before acting.
  bool WaitForStats(const std::function<bool(const net::NetStats&)>& ready) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (ready(server_.stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  BatchEngine& engine() { return engine_; }
  net::NetServer& server() { return server_; }

 private:
  BatchEngine engine_;
  net::NetServer server_;
  std::thread thread_;
  Status run_status_;
};

// Raw blocking client for the framing/disconnect tests (the load client
// would hide the torn writes these tests need to produce).
class RawClient {
 public:
  explicit RawClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un sun;
    std::memset(&sun, 0, sizeof(sun));
    sun.sun_family = AF_UNIX;
    std::memcpy(sun.sun_path, path.c_str(), path.size() + 1);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&sun),
                           sizeof(sun)) == 0;
  }

  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // 1: got a line, 0: EOF, -1: error.
  int ReadLine(std::string* line) {
    line->clear();
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line->assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        return 1;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
      if (n == 0) return 0;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  void CloseNow() {
    ::close(fd_);
    fd_ = -1;
  }

  // Whether a response (or EOF) is already here, without blocking.
  bool HasData() {
    if (!buffer_.empty()) return true;
    pollfd pfd{fd_, POLLIN, 0};
    return ::poll(&pfd, 1, 0) > 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

// The stdio peer of --serve over files, as `--serve IN >OUT` runs it:
// requests from one temp file, responses into another.
class FilePeer {
 public:
  FilePeer(const std::string& name, const std::string& input)
      : in_path_(TempPath(name + ".in")), out_path_(TempPath(name + ".out")) {
    std::ofstream(in_path_, std::ios::binary) << input;
    in_fd_ = ::open(in_path_.c_str(), O_RDONLY);
    out_fd_ = ::open(out_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }

  ~FilePeer() {
    ::close(in_fd_);
    ::close(out_fd_);
    std::error_code ec;
    fs::remove(in_path_, ec);
    fs::remove(out_path_, ec);
  }

  Status AddTo(net::NetServer& server) {
    return server.AddPeer(in_fd_, out_fd_);
  }

  // Whether both fds are blocking again, as AddPeer found them.
  bool FlagsRestored() const {
    return (::fcntl(in_fd_, F_GETFL) & O_NONBLOCK) == 0 &&
           (::fcntl(out_fd_, F_GETFL) & O_NONBLOCK) == 0;
  }

  std::vector<std::string> ResponseLines() const {
    std::ifstream in(out_path_, std::ios::binary);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  }

 private:
  static std::string TempPath(const std::string& name) {
    return (fs::path(::testing::TempDir()) /
            ("termilog_peer_" + std::to_string(::getpid()) + "_" + name))
        .string();
  }

  std::string in_path_;
  std::string out_path_;
  int in_fd_ = -1;
  int out_fd_ = -1;
};

// Serves `input` through the server's stdio peer on this thread; Run
// returns once the peer has read its whole input and every response is
// written.
std::vector<std::string> ServeThroughPeer(TestServer& server,
                                          const std::string& name,
                                          const std::string& input) {
  FilePeer peer(name, input);
  EXPECT_TRUE(peer.AddTo(server.server()).ok());
  EXPECT_TRUE(server.server().Run().ok());
  EXPECT_TRUE(peer.FlagsRestored());
  return peer.ResponseLines();
}

TEST(NetAddressTest, ParsesUnixAndTcpSpecs) {
  Result<net::NetAddress> unix_addr = net::ParseNetAddress("unix:/tmp/x.sock");
  ASSERT_TRUE(unix_addr.ok());
  EXPECT_EQ(unix_addr->kind, net::NetAddress::Kind::kUnix);
  EXPECT_EQ(unix_addr->path, "/tmp/x.sock");
  EXPECT_EQ(unix_addr->ToString(), "unix:/tmp/x.sock");

  Result<net::NetAddress> tcp = net::ParseNetAddress("tcp:127.0.0.1:8080");
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp->kind, net::NetAddress::Kind::kTcp);
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 8080);

  EXPECT_FALSE(net::ParseNetAddress("unix:").ok());
  EXPECT_FALSE(net::ParseNetAddress("tcp:8080").ok());
  EXPECT_FALSE(net::ParseNetAddress("tcp:host:notaport").ok());
  EXPECT_FALSE(net::ParseNetAddress("tcp:host:70000").ok());
  EXPECT_FALSE(net::ParseNetAddress("udp:host:1").ok());
  EXPECT_FALSE(net::ParseNetAddress("/tmp/bare/path").ok());
}

TEST(NetServerTest, UnixListenerRefusesToReplaceNonSocket) {
  const std::string path = SocketPath("notasocket");
  { std::ofstream out(path); out << "data"; }
  TestServer server((net::NetServerOptions()));
  Status listening = server.Listen("unix:" + path);
  EXPECT_FALSE(listening.ok());
  EXPECT_NE(listening.message().find("non-socket"), std::string::npos);
  fs::remove(path);
}

TEST(NetServerTest, MultiClientInterleavingKeepsPerConnectionOrder) {
  const std::string path = SocketPath("multi");
  TestServer server((net::NetServerOptions()));
  ASSERT_TRUE(server.Listen("unix:" + path).ok());
  server.Start();

  constexpr int kClients = 4, kPerClient = 5;
  std::vector<std::string> lines;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    lines.push_back(RequestLine("r" + std::to_string(i)));
  }
  net::LoadClientOptions options;
  options.clients = kClients;
  options.window = 4;
  std::vector<std::string> responses;
  options.responses = &responses;
  Result<net::NetAddress> address = net::ParseNetAddress("unix:" + path);
  ASSERT_TRUE(address.ok());
  Result<net::LoadClientStats> stats =
      net::RunLoadClient(*address, lines, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->sent, kClients * kPerClient);
  EXPECT_EQ(stats->received, kClients * kPerClient);
  EXPECT_EQ(stats->shed, 0);
  EXPECT_EQ(stats->errors, 0);

  // The load client deals lines round-robin and concatenates each
  // client's responses in connection order, so block k must be exactly
  // r_k, r_{k+4}, r_{k+8}, ... — any cross-request reordering within a
  // connection would break the arithmetic.
  ASSERT_EQ(responses.size(), static_cast<size_t>(kClients * kPerClient));
  for (int k = 0; k < kClients; ++k) {
    for (int j = 0; j < kPerClient; ++j) {
      Response response = ParseResponse(responses[k * kPerClient + j]);
      EXPECT_EQ(response.name, "r" + std::to_string(k + j * kClients));
      EXPECT_TRUE(response.ok) << responses[k * kPerClient + j];
    }
  }
  EXPECT_TRUE(server.Stop().ok());
  net::NetStats net_stats = server.server().stats();
  EXPECT_EQ(net_stats.accepted, kClients);
  EXPECT_EQ(net_stats.served, kClients * kPerClient);
}

TEST(NetServerTest, OverloadShedsDeterministicallyBeyondQueueLimit) {
  constexpr int kRequests = 10, kQueueLimit = 3;
  const std::string path = SocketPath("shed");
  net::NetServerOptions options;
  options.serve.queue_limit = kQueueLimit;
  // Freeze the processor: every admitted request parks in the waiting
  // room, so the accept/shed split is a pure function of queue_limit.
  options.hold_processing = true;
  TestServer server(options);
  ASSERT_TRUE(server.Listen("unix:" + path).ok());
  server.Start();

  RawClient client(path);
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += RequestLine("r" + std::to_string(i)) + "\n";
  }
  ASSERT_TRUE(client.Send(burst));
  // Every line seen: 3 admitted (held), 7 answered with the shed shape —
  // but the per-connection sequencer holds the sheds behind the held
  // analyses, so nothing is readable until release.
  ASSERT_TRUE(server.WaitForStats(
      [&](const net::NetStats& s) { return s.lines == kRequests; }));
  EXPECT_EQ(server.server().stats().shed, kRequests - kQueueLimit);
  server.server().ReleaseProcessing();

  std::string line;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(client.ReadLine(&line), 1) << "response " << i;
    Response response = ParseResponse(line);
    EXPECT_EQ(response.name, "r" + std::to_string(i));
    if (i < kQueueLimit) {
      EXPECT_TRUE(response.ok) << line;
    } else {
      EXPECT_FALSE(response.ok);
      EXPECT_NE(response.error.find("server overloaded: waiting room full"),
                std::string::npos)
          << line;
    }
  }
  EXPECT_TRUE(server.Stop().ok());
  net::NetStats stats = server.server().stats();
  EXPECT_EQ(stats.served, kQueueLimit);
  EXPECT_EQ(stats.shed, kRequests - kQueueLimit);
}

TEST(NetServerTest, IdleConnectionsAreDisconnected) {
  const std::string path = SocketPath("idle");
  net::NetServerOptions options;
  options.idle_timeout_ms = 50;
  TestServer server(options);
  ASSERT_TRUE(server.Listen("unix:" + path).ok());
  server.Start();

  RawClient client(path);
  ASSERT_TRUE(client.connected());
  std::string line;
  // Say nothing: the server must hang up on us, not wait forever.
  EXPECT_EQ(client.ReadLine(&line), 0);
  ASSERT_TRUE(server.WaitForStats(
      [](const net::NetStats& s) { return s.idle_timeouts == 1; }));
  EXPECT_TRUE(server.Stop().ok());
}

TEST(NetServerTest, TornFramesReassembleAndGarbageGetsAStructuredError) {
  const std::string path = SocketPath("torn");
  TestServer server((net::NetServerOptions()));
  ASSERT_TRUE(server.Listen("unix:" + path).ok());
  server.Start();

  RawClient client(path);
  ASSERT_TRUE(client.connected());
  // A request torn across two writes with a pause between them must
  // reassemble into one request, not two garbage ones.
  const std::string whole = RequestLine("torn") + "\n";
  ASSERT_TRUE(client.Send(whole.substr(0, whole.size() / 2)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.Send(whole.substr(whole.size() / 2)));
  // Truncated JSON (a frame whose tail never arrives before the newline)
  // answers with the per-request error shape naming its line.
  ASSERT_TRUE(client.Send("{\"name\":\"trunc\",\"sour\n"));
  ASSERT_TRUE(client.Send(RequestLine("after") + "\n"));

  std::string line;
  ASSERT_EQ(client.ReadLine(&line), 1);
  Response torn = ParseResponse(line);
  EXPECT_EQ(torn.name, "torn");
  EXPECT_TRUE(torn.ok) << line;
  ASSERT_EQ(client.ReadLine(&line), 1);
  Response truncated = ParseResponse(line);
  EXPECT_FALSE(truncated.ok);
  EXPECT_NE(truncated.error.find("line 2"), std::string::npos) << line;
  ASSERT_EQ(client.ReadLine(&line), 1);
  EXPECT_TRUE(ParseResponse(line).ok) << line;
  EXPECT_TRUE(server.Stop().ok());
}

TEST(NetServerTest, OverlongLineAnsweredWithErrorAndConnectionSurvives) {
  const std::string path = SocketPath("overlong");
  net::NetServerOptions options;
  options.serve.max_line_bytes = 64;
  TestServer server(options);
  ASSERT_TRUE(server.Listen("unix:" + path).ok());
  server.Start();

  RawClient client(path);
  ASSERT_TRUE(client.connected());
  // 10 KiB against a 64-byte cap: answered with a structured error while
  // buffering at most the cap, and the connection keeps working.
  ASSERT_TRUE(client.Send(std::string(10 * 1024, 'x') + "\n"));
  ASSERT_TRUE(client.Send(RequestLine("small") + "\n"));
  std::string line;
  ASSERT_EQ(client.ReadLine(&line), 1);
  Response overlong = ParseResponse(line);
  EXPECT_FALSE(overlong.ok);
  EXPECT_EQ(overlong.name, "manifest:1");
  EXPECT_NE(overlong.error.find("64-byte line cap"), std::string::npos)
      << line;
  // "small" is over the tiny cap too? No: the request line is ~100 bytes…
  // which IS over 64. Expect the cap verdict for it as well — the point
  // is the connection still answers, line by line.
  ASSERT_EQ(client.ReadLine(&line), 1);
  EXPECT_EQ(ParseResponse(line).name, "manifest:2");
  EXPECT_TRUE(server.Stop().ok());
  EXPECT_EQ(server.server().stats().overlong, 2);
}

TEST(NetServerTest, ClientDisconnectMidResponseDoesNotKillTheServer) {
  const std::string path = SocketPath("vanish");
  TestServer server((net::NetServerOptions()));
  ASSERT_TRUE(server.Listen("unix:" + path).ok());
  server.Start();

  {
    RawClient rude(path);
    ASSERT_TRUE(rude.connected());
    ASSERT_TRUE(rude.Send(RequestLine("doomed") + "\n"));
    rude.CloseNow();  // gone before the response can be written
  }
  // The server must shrug (EPIPE on one connection) and keep serving.
  RawClient polite(path);
  ASSERT_TRUE(polite.connected());
  ASSERT_TRUE(polite.Send(RequestLine("alive") + "\n"));
  std::string line;
  ASSERT_EQ(polite.ReadLine(&line), 1);
  Response response = ParseResponse(line);
  EXPECT_EQ(response.name, "alive");
  EXPECT_TRUE(response.ok) << line;
  EXPECT_TRUE(server.Stop().ok());
}

TEST(NetServerTest, TcpListenerServesOnEphemeralPort) {
  net::NetServerOptions options;
  TestServer server(options);
  ASSERT_TRUE(server.Listen("tcp:127.0.0.1:0").ok());
  const int port = server.server().port();
  ASSERT_GT(port, 0);
  server.Start();

  net::LoadClientOptions client_options;
  client_options.clients = 2;
  std::vector<std::string> responses;
  client_options.responses = &responses;
  std::vector<std::string> lines = {RequestLine("t0"), RequestLine("t1"),
                                    RequestLine("t2"), RequestLine("t3")};
  Result<net::NetAddress> address =
      net::ParseNetAddress("tcp:localhost:" + std::to_string(port));
  ASSERT_TRUE(address.ok());
  Result<net::LoadClientStats> stats =
      net::RunLoadClient(*address, lines, client_options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->received, 4);
  for (const std::string& response : responses) {
    EXPECT_TRUE(ParseResponse(response).ok) << response;
  }
  EXPECT_TRUE(server.Stop().ok());
}

TEST(NetServerTest, DrainFinishesAdmittedRequestsBeforeExiting) {
  constexpr int kRequests = 3;
  const std::string path = SocketPath("drain");
  net::NetServerOptions options;
  options.hold_processing = true;
  TestServer server(options);
  ASSERT_TRUE(server.Listen("unix:" + path).ok());
  server.Start();

  RawClient client(path);
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += RequestLine("d" + std::to_string(i)) + "\n";
  }
  ASSERT_TRUE(client.Send(burst));
  ASSERT_TRUE(server.WaitForStats(
      [&](const net::NetStats& s) { return s.lines == kRequests; }));
  // Drain lands while all three sit in the waiting room: the contract is
  // stop accepting, FINISH what was admitted, then exit.
  server.server().BeginDrain();
  server.server().ReleaseProcessing();
  std::string line;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(client.ReadLine(&line), 1) << "response " << i;
    Response response = ParseResponse(line);
    EXPECT_EQ(response.name, "d" + std::to_string(i));
    EXPECT_TRUE(response.ok) << line;
  }
  EXPECT_EQ(client.ReadLine(&line), 0);  // server closed after the flush
  EXPECT_TRUE(server.Stop().ok());
  EXPECT_EQ(server.server().stats().served, kRequests);
}

TEST(NetServerTest, GracefulDrainLeavesAttachedStoreFlushedAndClean) {
  const std::string path = SocketPath("store");
  const std::string store_path =
      (fs::path(::testing::TempDir()) / "net_drain_store.log").string();
  std::error_code ec;
  fs::remove(store_path, ec);

  net::NetServerOptions options;
  TestServer server(options);
  Result<std::unique_ptr<persist::PersistentStore>> store =
      persist::PersistentStore::Open(store_path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(server.engine().AttachStore(std::move(*store)).ok());
  ASSERT_TRUE(server.Listen("unix:" + path).ok());
  server.Start();

  net::LoadClientOptions client_options;
  client_options.clients = 2;
  std::vector<std::string> lines;
  for (int i = 0; i < 8; ++i) {
    lines.push_back(RequestLine("s" + std::to_string(i)));
  }
  Result<net::NetAddress> address = net::ParseNetAddress("unix:" + path);
  ASSERT_TRUE(address.ok());
  Result<net::LoadClientStats> ran =
      net::RunLoadClient(*address, lines, client_options);
  ASSERT_TRUE(ran.ok());
  EXPECT_EQ(ran->received, 8);

  // The CLI's shutdown sequence: drain, flush, self-check.
  EXPECT_TRUE(server.Stop().ok());
  EXPECT_TRUE(server.engine().FlushStore().ok());
  EXPECT_TRUE(server.engine().SelfCheck().ok());
  const int64_t appends = server.engine().store()->stats().appends;
  ASSERT_GT(appends, 0);

  // What survived on disk must replay with zero quarantined records.
  Result<std::unique_ptr<persist::PersistentStore>> reopened =
      persist::PersistentStore::Open(store_path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->stats().records_quarantined, 0);
  EXPECT_EQ((*reopened)->stats().tail_bytes_truncated, 0);
  // A fresh store whose every key was computed once holds no duplicate.
  EXPECT_EQ((*reopened)->stats().records_loaded, appends);
  fs::remove(store_path, ec);
}

// The corpus's slowest entry, `nnf` (one inference task and one SCC
// task, hundreds of milliseconds), as a request line named "heavy".
std::string HeavyRequestLine() {
  const CorpusEntry* nnf = FindCorpusEntry("nnf");
  EXPECT_NE(nnf, nullptr);
  return "{\"name\":\"heavy\",\"source\":\"" + JsonEscape(nnf->source) +
         "\",\"query\":\"nnf(b,f)\"}\n";
}

// A light request must not wait for a heavy one admitted before it: the
// engine runs each request's tasks as workers free up, so with two
// workers the second one answers `app` while `nnf` is still in analysis.
TEST(NetServerTest, LightRequestIsNotHeldBehindAHeavyOne) {
  const std::string path = SocketPath("light");
  TestServer server((net::NetServerOptions()));
  ASSERT_TRUE(server.Listen("unix:" + path).ok());
  server.Start();

  RawClient heavy(path);
  ASSERT_TRUE(heavy.connected());
  ASSERT_TRUE(heavy.Send(HeavyRequestLine()));
  ASSERT_TRUE(server.WaitForStats(
      [](const net::NetStats& s) { return s.lines == 1; }));

  RawClient light(path);
  ASSERT_TRUE(light.connected());
  ASSERT_TRUE(light.Send(RequestLine("light") + "\n"));
  std::string line;
  ASSERT_EQ(light.ReadLine(&line), 1);
  EXPECT_EQ(ParseResponse(line).name, "light");
  // The heavy response has not been written yet.
  EXPECT_FALSE(heavy.HasData()) << "the light request waited for nnf";
  ASSERT_EQ(heavy.ReadLine(&line), 1);
  Response response = ParseResponse(line);
  EXPECT_EQ(response.name, "heavy");
  EXPECT_TRUE(response.ok) << line;
  EXPECT_TRUE(server.Stop().ok());
}

// The waiting room holds every admitted request until it is answered,
// including one the engine is already analyzing: with room for one, a
// request that arrives while `nnf` is in analysis is shed.
TEST(NetServerTest, WaitingRoomCountsRequestsBeingAnalyzed) {
  const std::string path = SocketPath("room");
  net::NetServerOptions options;
  options.serve.queue_limit = 1;
  TestServer server(options);
  ASSERT_TRUE(server.Listen("unix:" + path).ok());
  server.Start();

  RawClient heavy(path);
  ASSERT_TRUE(heavy.connected());
  ASSERT_TRUE(heavy.Send(HeavyRequestLine()));
  ASSERT_TRUE(server.WaitForStats(
      [](const net::NetStats& s) { return s.lines == 1; }));

  RawClient light(path);
  ASSERT_TRUE(light.connected());
  ASSERT_TRUE(light.Send(RequestLine("light") + "\n"));
  std::string line;
  ASSERT_EQ(light.ReadLine(&line), 1);
  Response shed = ParseResponse(line);
  EXPECT_EQ(shed.name, "light");
  EXPECT_NE(shed.error.find("server overloaded: waiting room full"),
            std::string::npos)
      << line;
  ASSERT_EQ(heavy.ReadLine(&line), 1);
  EXPECT_TRUE(ParseResponse(line).ok) << line;
  EXPECT_TRUE(server.Stop().ok());
  EXPECT_EQ(server.server().stats().shed, 1);
}

TEST(ServeTest, AnswersEachRequestInOrder) {
  TestServer server(net::NetServerOptions(),
                    EngineOptions{/*jobs=*/2, /*use_cache=*/true});
  std::vector<std::string> lines = ServeThroughPeer(
      server, "order",
      RequestLine("r0") + "\n" + RequestLine("r1") + "\n" +
          "\n" +  // blank lines are skipped, not answered
          RequestLine("r2") + "\n");
  net::NetStats stats = server.server().stats();
  EXPECT_EQ(stats.lines, 3);
  EXPECT_EQ(stats.served, 3);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.errors, 0);
  ASSERT_EQ(lines.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    Response response = ParseResponse(lines[i]);
    EXPECT_EQ(response.name, "r" + std::to_string(i));
    EXPECT_TRUE(response.ok) << lines[i];
  }
}

TEST(ServeTest, BadLinesGetErrorResponsesAndTheLoopKeepsServing) {
  TestServer server(net::NetServerOptions(),
                    EngineOptions{/*jobs=*/1, /*use_cache=*/true});
  std::vector<std::string> lines = ServeThroughPeer(
      server, "bad",
      RequestLine("good") + "\n" + "this is not json\n" +
          "{\"name\":\"nosource\"}\n" + RequestLine("also") + "\n");
  net::NetStats stats = server.server().stats();
  EXPECT_EQ(stats.lines, 4);
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.errors, 2);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_TRUE(ParseResponse(lines[0]).ok);
  Response garbage = ParseResponse(lines[1]);
  EXPECT_FALSE(garbage.ok);
  // The error names the offending line so a client tailing the stream
  // can find it in its own log.
  EXPECT_NE(garbage.error.find("line 2"), std::string::npos) << lines[1];
  EXPECT_FALSE(ParseResponse(lines[2]).ok);
  EXPECT_TRUE(ParseResponse(lines[3]).ok);
}

TEST(ServeTest, OverloadShedsDeterministicallyBeyondQueueLimit) {
  constexpr int kRequests = 10, kQueueLimit = 3;
  net::NetServerOptions options;
  options.serve.queue_limit = kQueueLimit;
  // Freeze the processor until the server has seen all input: exactly
  // queue_limit requests fit the waiting room, the rest must shed.
  options.hold_processing = true;
  TestServer server(options, EngineOptions{/*jobs=*/2, /*use_cache=*/true});
  std::string input;
  for (int i = 0; i < kRequests; ++i) {
    input += RequestLine("r" + std::to_string(i)) + "\n";
  }
  FilePeer peer("shed", input);
  ASSERT_TRUE(peer.AddTo(server.server()).ok());
  server.Start();
  ASSERT_TRUE(server.WaitForStats(
      [&](const net::NetStats& s) { return s.lines == kRequests; }));
  server.server().ReleaseProcessing();
  ASSERT_TRUE(server.Wait().ok());
  net::NetStats stats = server.server().stats();
  EXPECT_EQ(stats.lines, kRequests);
  EXPECT_EQ(stats.served, kQueueLimit);
  EXPECT_EQ(stats.shed, kRequests - kQueueLimit);
  EXPECT_EQ(stats.errors, 0);

  std::vector<std::string> lines = peer.ResponseLines();
  ASSERT_EQ(lines.size(), static_cast<size_t>(kRequests));
  std::string shed_line;
  for (int i = 0; i < kRequests; ++i) {
    Response response = ParseResponse(lines[i]);
    // Responses arrive in request order even though shed responses are
    // written by the event loop and served ones come from engine workers.
    EXPECT_EQ(response.name, "r" + std::to_string(i));
    if (i < kQueueLimit) {
      EXPECT_TRUE(response.ok) << lines[i];
    } else {
      EXPECT_FALSE(response.ok) << lines[i];
      EXPECT_NE(response.error.find("server overloaded"), std::string::npos);
      EXPECT_NE(response.error.find("retry"), std::string::npos);
      // Deterministic shed bytes: every shed response is identical
      // except for the request name.
      std::string tail = lines[i].substr(lines[i].find("\"ok\""));
      if (shed_line.empty()) {
        shed_line = tail;
      } else {
        EXPECT_EQ(tail, shed_line);
      }
    }
  }
}

TEST(ServeTest, UnknownRequestKindGetsStructuredErrorResponse) {
  TestServer server(net::NetServerOptions(),
                    EngineOptions{/*jobs=*/1, /*use_cache=*/true});
  // An unknown "kind" is a protocol error on that line only: the response
  // uses the same structured error shape as any other bad line, names the
  // offending kind, and the loop keeps serving subsequent requests.
  std::string bad = "{\"name\":\"mystery\",\"kind\":\"frobnicate\","
                    "\"source\":\"p(a).\"}\n";
  std::vector<std::string> lines =
      ServeThroughPeer(server, "kind", bad + RequestLine("after") + "\n");
  net::NetStats stats = server.server().stats();
  EXPECT_EQ(stats.lines, 2);
  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.conditions, 0);
  ASSERT_EQ(lines.size(), 2u);
  Response unknown = ParseResponse(lines[0]);
  EXPECT_EQ(unknown.name, "mystery");
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("unknown request kind"), std::string::npos)
      << lines[0];
  EXPECT_NE(unknown.error.find("frobnicate"), std::string::npos) << lines[0];
  EXPECT_TRUE(ParseResponse(lines[1]).ok);
}

TEST(ServeTest, ConditionsKindAnswersWithSweepReport) {
  TestServer server(net::NetServerOptions(),
                    EngineOptions{/*jobs=*/2, /*use_cache=*/true});
  std::string conditions = "{\"name\":\"sweep\",\"kind\":\"conditions\","
                           "\"source\":\"" + std::string(kAppendSource) +
                           "\"}\n";
  std::vector<std::string> lines = ServeThroughPeer(
      server, "conditions", RequestLine("plain") + "\n" + conditions);
  net::NetStats stats = server.server().stats();
  EXPECT_EQ(stats.lines, 2);
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.conditions, 1);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(ParseResponse(lines[0]).ok);
  Response sweep = ParseResponse(lines[1]);
  EXPECT_EQ(sweep.name, "sweep");
  EXPECT_TRUE(sweep.ok) << lines[1];
  EXPECT_NE(lines[1].find("\"kind\":\"conditions\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"minimal_modes\":[\"bff\",\"ffb\"]"),
            std::string::npos)
      << lines[1];
}

TEST(ServeTest, ConditionsKindReportsUnparseableProgramAsError) {
  TestServer server(net::NetServerOptions(),
                    EngineOptions{/*jobs=*/1, /*use_cache=*/true});
  std::vector<std::string> lines = ServeThroughPeer(
      server, "broken",
      "{\"name\":\"broken\",\"kind\":\"conditions\",\"source\":\"p(\"}\n");
  net::NetStats stats = server.server().stats();
  EXPECT_EQ(stats.served, 0);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.conditions, 0);
  ASSERT_EQ(lines.size(), 1u);
  Response broken = ParseResponse(lines[0]);
  EXPECT_EQ(broken.name, "broken");
  EXPECT_FALSE(broken.ok);
  EXPECT_NE(lines[0].find("\"kind\":\"conditions\""), std::string::npos);
}

TEST(ServeTest, MultiModeEntryWithoutQueryAnswersOnceForTheFirstMode) {
  TestServer server(net::NetServerOptions(),
                    EngineOptions{/*jobs=*/1, /*use_cache=*/true});
  // Serve is one line in, one line out: of the two mode directives only
  // the first is analyzed (--batch answers both).
  std::string line = "{\"name\":\"modes\",\"source\":\":- mode(app(f,f,b)). " +
                     std::string(kAppendSource) + "\"}\n";
  std::vector<std::string> lines =
      ServeThroughPeer(server, "modes", line + RequestLine("after") + "\n");
  EXPECT_EQ(server.server().stats().served, 2);
  ASSERT_EQ(lines.size(), 2u);
  Response first = ParseResponse(lines[0]);
  EXPECT_EQ(first.name, "modes");
  EXPECT_TRUE(first.ok) << lines[0];
  EXPECT_NE(lines[0].find("\"query\":\"app(f,f,b)\""), std::string::npos)
      << lines[0];
  EXPECT_EQ(ParseResponse(lines[1]).name, "after");
}

TEST(ServeTest, ConditionsKindWithoutSourceAnswersInTheConditionsShape) {
  TestServer server(net::NetServerOptions(),
                    EngineOptions{/*jobs=*/1, /*use_cache=*/true});
  std::vector<std::string> lines = ServeThroughPeer(
      server, "nosource", "{\"name\":\"bare\",\"kind\":\"conditions\"}\n");
  net::NetStats stats = server.server().stats();
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.conditions, 0);
  ASSERT_EQ(lines.size(), 1u);
  Response bare = ParseResponse(lines[0]);
  EXPECT_EQ(bare.name, "bare");
  EXPECT_FALSE(bare.ok);
  EXPECT_NE(bare.error.find("needs \"source\" or \"file\""),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"kind\":\"conditions\""), std::string::npos)
      << lines[0];
}

TEST(ServeTest, OverlongLinesAreDiscardedWithAStructuredError) {
  net::NetServerOptions options;
  options.serve.max_line_bytes = 128;
  TestServer server(options, EngineOptions{/*jobs=*/1, /*use_cache=*/true});
  // A 1 MiB request line against a 128-byte cap: the server must answer
  // with the per-request error shape while buffering at most the cap,
  // and the next (short enough) request must still be served. The short
  // request has to actually fit, so use a trivial program inline.
  std::string tiny = "{\"name\":\"tiny\",\"source\":\"p(a).\","
                     "\"query\":\"p(b)\"}\n";
  ASSERT_LT(tiny.size(), 128u);
  std::vector<std::string> lines = ServeThroughPeer(
      server, "overlong",
      "{\"name\":\"flood\",\"source\":\"" + std::string(1 << 20, 'x') +
          "\"}\n" + tiny);
  net::NetStats stats = server.server().stats();
  EXPECT_EQ(stats.lines, 2);
  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.overlong, 1);
  ASSERT_EQ(lines.size(), 2u);
  Response flood = ParseResponse(lines[0]);
  // The request name is unknowable (the line was never parsed), so the
  // error names the input position instead.
  EXPECT_EQ(flood.name, "manifest:1");
  EXPECT_FALSE(flood.ok);
  EXPECT_NE(flood.error.find("128-byte line cap"), std::string::npos)
      << lines[0];
  Response tiny_response = ParseResponse(lines[1]);
  EXPECT_EQ(tiny_response.name, "tiny");
  EXPECT_TRUE(tiny_response.ok) << lines[1];
}

TEST(ServeTest, PerRequestLimitsOverrideTheBase) {
  TestServer server(net::NetServerOptions(),
                    EngineOptions{/*jobs=*/1, /*use_cache=*/false});
  // A work budget of 1 cannot complete the SCC analysis: the report must
  // come back resource-limited, but still as a valid ok:true response.
  std::string line = "{\"name\":\"starved\",\"source\":\"" +
                     std::string(kAppendSource) +
                     "\",\"query\":\"app(b,f,f)\"," +
                     "\"limits\":{\"work_budget\":1}}\n";
  std::vector<std::string> lines =
      ServeThroughPeer(server, "limits", line + RequestLine("fed") + "\n");
  EXPECT_EQ(server.server().stats().served, 2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"resource_limited\":true"), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("\"resource_limited\":false"), std::string::npos)
      << lines[1];
}

}  // namespace
}  // namespace termilog
