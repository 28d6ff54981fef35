// E15: socket-transport throughput and behavior under load
// (docs/serve.md). Spins up the real NetServer (src/net/) on a Unix
// socket inside this process, replays a generated workload through the
// built-in load client at 1/2/4/8 concurrent connections, and emits one
// machine-readable JSON object on stdout — the repo's BENCH_serve.json
// trajectory point.
//
// Three sections, each asserting the transport's contract while it
// measures:
//   rows     — per client level: saturation requests/s and p50/p95/p99/
//              max send-to-response latency, plus "batch_match": the
//              response lines, as a multiset, must be byte-identical to
//              what ServeRequest (the --batch path) produces for the
//              same manifest on a fresh engine. The transport may
//              interleave clients but must never change a byte.
//   overload — queue_limit=2 with the processor held until every line is
//              in: the shed/accept split becomes a pure function of the
//              limit (exactly queue_limit served, the rest answered with
//              the deterministic overload shape), and every request still
//              gets a response — bounded latency, not an unbounded queue.
//   drain    — SIGTERM raised mid-load against a server with an attached
//              persistent store: Run() must return OK, the store must
//              flush, and a reopen must recover every record with zero
//              quarantined — the kill -9 drill's graceful sibling.
//
// Latency here is send-to-response per request measured by the client
// under pipelining, so it includes server queue time — the service
// latency a real peer sees, unlike bench_engine's in-process latency_us.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "termilog/termilog.h"

#ifndef TERMILOG_BUILD_TYPE
#define TERMILOG_BUILD_TYPE "unspecified"
#endif

using namespace termilog;

namespace {

constexpr int kSchemaVersion = 1;
constexpr int kClientLevels[] = {1, 2, 4, 8};
constexpr int kServerJobs = 4;

int g_requests = 400;
int g_window = 8;

std::string SocketPath(const char* row) {
  return (std::filesystem::temp_directory_path() /
          (std::string("termilog_bench_serve_") + row + ".sock"))
      .string();
}

// The generated workload: unique mixed-verdict programs (dup=0), so the
// cache cannot shortcut the work and rows measure distinct-request
// throughput — the same shape as bench_engine's stress section.
gen::GenParams WorkloadParams() {
  gen::GenParams params;
  params.seed = 2026;
  params.count = g_requests;
  params.min_sccs = 1;
  params.max_sccs = 3;
  params.min_scc_size = 1;
  params.max_scc_size = 3;
  params.mix_proved = 70;
  params.mix_not_proved = 25;
  params.mix_resource_limit = 5;
  params.name_prefix = "serve";
  return params;
}

std::vector<std::string> ManifestLines(const gen::GeneratedWorkload& workload) {
  std::vector<std::string> lines;
  for (const gen::GeneratedRequest& request : workload.requests) {
    lines.push_back(gen::RequestToManifestLine(request));
  }
  return lines;
}

// What --batch would answer: the same manifest through ServeRequest on a
// fresh engine, sorted (the transport only promises per-connection order,
// so identity is a multiset claim).
std::vector<std::string> SortedReference(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  std::vector<gen::ManifestEntry> entries =
      gen::ParseManifestJsonl(text).value();
  std::mutex mu;
  std::condition_variable answered;
  std::vector<std::string> reference;
  {
    BatchEngine engine(EngineOptions{kServerJobs, /*use_cache=*/true});
    for (gen::ManifestEntry& entry : entries) {
      ServeRequest(engine, std::move(entry), AnalysisOptions(),
                   [&](std::string line, ServeAnswer) {
                     std::lock_guard<std::mutex> lock(mu);
                     reference.push_back(std::move(line));
                     answered.notify_all();
                   });
    }
    std::unique_lock<std::mutex> lock(mu);
    answered.wait(lock, [&] { return reference.size() == entries.size(); });
  }
  std::sort(reference.begin(), reference.end());
  return reference;
}

std::string MetaJson() {
  std::string levels;
  for (int c : kClientLevels) {
    if (!levels.empty()) levels += ',';
    levels += std::to_string(c);
  }
  return StrCat("{\"schema_version\":", kSchemaVersion,
                ",\"build_type\":\"", JsonEscape(TERMILOG_BUILD_TYPE),
                "\",\"clients\":[", levels, "],\"requests\":", g_requests,
                ",\"window\":", g_window, ",\"server_jobs\":", kServerJobs,
                ",\"spec\":\"", JsonEscape(gen::GenSpecToString(WorkloadParams())),
                "\"}");
}

std::string LatencyJson(const gen::LatencySummary& latency) {
  return StrCat("{\"p50\":", latency.p50_us, ",\"p95\":", latency.p95_us,
                ",\"p99\":", latency.p99_us, ",\"max\":", latency.max_us, "}");
}

// One client level: fresh engine + server (cold cache every row, so the
// levels are comparable), full replay, byte-identity check.
std::string ThroughputRow(int clients, const std::vector<std::string>& lines,
                          const std::vector<std::string>& reference,
                          bool* failed) {
  const std::string path = SocketPath("row");
  std::error_code ec;
  std::filesystem::remove(path, ec);

  BatchEngine engine(EngineOptions{kServerJobs, /*use_cache=*/true});
  net::NetServerOptions options;
  net::NetServer server(engine, options);
  Status listening =
      server.Listen(net::ParseNetAddress("unix:" + path).value());
  if (!listening.ok()) {
    std::fprintf(stderr, "bench_serve: %s\n", listening.ToString().c_str());
    *failed = true;
    return "{\"ok\":false}";
  }
  Status run_status;
  std::thread server_thread([&] { run_status = server.Run(); });

  net::LoadClientOptions client_options;
  client_options.clients = clients;
  client_options.window = g_window;
  std::vector<std::string> responses;
  client_options.responses = &responses;
  Result<net::LoadClientStats> stats = net::RunLoadClient(
      net::ParseNetAddress("unix:" + path).value(), lines, client_options);

  server.BeginDrain();
  server_thread.join();
  std::filesystem::remove(path, ec);

  if (!stats.ok()) {
    std::fprintf(stderr, "bench_serve: %s\n",
                 stats.status().ToString().c_str());
    *failed = true;
    return "{\"ok\":false}";
  }
  std::sort(responses.begin(), responses.end());
  bool batch_match = responses == reference;
  bool ok = run_status.ok() && batch_match &&
            stats->received == static_cast<int64_t>(lines.size()) &&
            stats->errors == 0 && stats->shed == 0;
  *failed = *failed || !ok;

  double seconds = stats->elapsed_ms / 1000.0;
  double throughput =
      seconds > 0 ? static_cast<double>(stats->received) / seconds : 0.0;
  gen::LatencySummary latency = gen::SummarizeLatencies(stats->latencies_us);
  char throughput_text[64];
  std::snprintf(throughput_text, sizeof(throughput_text), "%.1f", throughput);
  char elapsed_text[64];
  std::snprintf(elapsed_text, sizeof(elapsed_text), "%.1f",
                stats->elapsed_ms);
  return StrCat("{\"clients\":", clients, ",\"sent\":", stats->sent,
                ",\"received\":", stats->received,
                ",\"elapsed_ms\":", elapsed_text,
                ",\"requests_per_s\":", throughput_text,
                ",\"latency_us\":", LatencyJson(latency),
                ",\"batch_match\":", batch_match ? "true" : "false",
                ",\"ok\":", ok ? "true" : "false", "}");
}

// Overload: freeze the processor until every line has been admitted or
// shed, so the split is deterministic — exactly queue_limit requests
// served, the rest answered immediately with the overload shape. The
// load client still gets a response for every request it sent.
std::string OverloadRow(const std::vector<std::string>& lines, bool* failed) {
  constexpr int kQueueLimit = 2, kOverloadClients = 4;
  const std::string path = SocketPath("overload");
  std::error_code ec;
  std::filesystem::remove(path, ec);

  BatchEngine engine(EngineOptions{kServerJobs, /*use_cache=*/true});
  net::NetServerOptions options;
  options.serve.queue_limit = kQueueLimit;
  options.hold_processing = true;
  net::NetServer server(engine, options);
  Status listening =
      server.Listen(net::ParseNetAddress("unix:" + path).value());
  if (!listening.ok()) {
    *failed = true;
    return "{\"ok\":false}";
  }
  Status run_status;
  std::thread server_thread([&] { run_status = server.Run(); });

  net::LoadClientOptions client_options;
  client_options.clients = kOverloadClients;
  // A window wider than each client's slice: every line is on the wire
  // before any response is needed, so the hold cannot deadlock the send.
  client_options.window =
      static_cast<int>(lines.size() / kOverloadClients) + 1;
  Result<net::LoadClientStats> stats =
      Status::Internal("load client did not run");
  std::thread client_thread([&] {
    stats = net::RunLoadClient(net::ParseNetAddress("unix:" + path).value(),
                               lines, client_options);
  });
  // Release only after the server has seen every line; until then the
  // waiting room holds kQueueLimit and everything else sheds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().lines < static_cast<int64_t>(lines.size()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.ReleaseProcessing();
  client_thread.join();
  server.BeginDrain();
  server_thread.join();
  std::filesystem::remove(path, ec);

  net::NetStats net_stats = server.stats();
  const int64_t expected_shed =
      static_cast<int64_t>(lines.size()) - kQueueLimit;
  bool ok = stats.ok() && run_status.ok() &&
            stats->received == static_cast<int64_t>(lines.size()) &&
            net_stats.served == kQueueLimit &&
            net_stats.shed == expected_shed && stats->shed == expected_shed;
  *failed = *failed || !ok;
  if (!stats.ok()) return "{\"ok\":false}";
  return StrCat("{\"queue_limit\":", kQueueLimit,
                ",\"clients\":", kOverloadClients,
                ",\"sent\":", stats->sent, ",\"received\":", stats->received,
                ",\"served\":", net_stats.served,
                ",\"shed\":", net_stats.shed,
                ",\"all_answered\":",
                stats->received == stats->sent ? "true" : "false",
                ",\"ok\":", ok ? "true" : "false", "}");
}

// Drain: SIGTERM lands mid-load on a server with an attached store —
// the real shutdown path, handler and all. The client may see fewer
// responses than it sent (the listener closes); what matters is that
// Run() returns OK, the flush completes, and the reopened store recovers
// everything with zero quarantined records.
std::string DrainRow(const std::vector<std::string>& lines, bool* failed) {
  const std::string path = SocketPath("drain");
  const std::string store_path =
      (std::filesystem::temp_directory_path() / "termilog_bench_serve.store")
          .string();
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(store_path, ec);
  std::filesystem::remove(store_path + ".quarantined", ec);
  std::filesystem::remove(store_path + ".tmp", ec);

  Status run_status, flushed;
  int64_t flushed_entries = 0, served = 0;
  Result<net::LoadClientStats> stats =
      Status::Internal("load client did not run");
  {
    // Engine and server scoped so the store's write handle closes before
    // the verification reopen below.
    BatchEngine engine(EngineOptions{kServerJobs, /*use_cache=*/true});
    Result<std::unique_ptr<persist::PersistentStore>> store =
        persist::PersistentStore::Open(store_path);
    if (!store.ok() || !engine.AttachStore(std::move(*store)).ok()) {
      *failed = true;
      return "{\"ok\":false}";
    }
    net::NetServerOptions options;
    net::NetServer server(engine, options);
    Status listening =
        server.Listen(net::ParseNetAddress("unix:" + path).value());
    Status installed = server.InstallSignalHandlers();
    if (!listening.ok() || !installed.ok()) {
      *failed = true;
      return "{\"ok\":false}";
    }
    std::thread server_thread([&] { run_status = server.Run(); });

    net::LoadClientOptions client_options;
    client_options.clients = 4;
    client_options.window = g_window;
    std::thread client_thread([&] {
      stats = net::RunLoadClient(net::ParseNetAddress("unix:" + path).value(),
                                 lines, client_options);
    });
    // Let real work land, then deliver the signal the deployment would.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.stats().served < 20 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::raise(SIGTERM);
    server_thread.join();
    client_thread.join();
    std::filesystem::remove(path, ec);

    flushed = engine.FlushStore();
    flushed_entries = engine.store()->size();
    served = server.stats().served;
  }

  Result<std::unique_ptr<persist::PersistentStore>> reopened =
      persist::PersistentStore::Open(store_path);
  bool store_clean = reopened.ok() &&
                     (*reopened)->stats().records_quarantined == 0 &&
                     (*reopened)->stats().tail_bytes_truncated == 0 &&
                     (*reopened)->size() == flushed_entries &&
                     flushed_entries > 0;
  bool ok = stats.ok() && run_status.ok() && flushed.ok() && store_clean &&
            stats->received <= stats->sent && served >= 20;
  *failed = *failed || !ok;
  if (!stats.ok()) {
    std::filesystem::remove(store_path, ec);
    return "{\"ok\":false}";
  }
  std::string row =
      StrCat("{\"sent\":", stats->sent, ",\"received\":", stats->received,
             ",\"served\":", served,
             ",\"run_ok\":", run_status.ok() ? "true" : "false",
             ",\"store_entries\":", flushed_entries,
             ",\"records_quarantined\":",
             reopened.ok() ? (*reopened)->stats().records_quarantined : -1,
             ",\"store_clean\":", store_clean ? "true" : "false",
             ",\"ok\":", ok ? "true" : "false", "}");
  std::filesystem::remove(store_path, ec);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--requests" && i + 1 < argc) {
      g_requests = std::atoi(argv[++i]);
      if (g_requests < 8) g_requests = 8;
    } else if (arg == "--window" && i + 1 < argc) {
      g_window = std::atoi(argv[++i]);
      if (g_window < 1) g_window = 1;
    } else {
      std::fprintf(stderr, "usage: bench_serve [--requests N] [--window N]\n");
      return 1;
    }
  }

  gen::GeneratedWorkload workload = gen::Generate(WorkloadParams());
  std::vector<std::string> lines = ManifestLines(workload);
  std::vector<std::string> reference = SortedReference(lines);

  bool failed = false;
  std::string out =
      StrCat("{\"bench\":\"serve\",\"meta\":", MetaJson(), ",\"rows\":[");
  bool first = true;
  for (int clients : kClientLevels) {
    if (!first) out += ',';
    first = false;
    out += ThroughputRow(clients, lines, reference, &failed);
  }
  out += "],\"overload\":";
  out += OverloadRow(lines, &failed);
  out += ",\"drain\":";
  out += DrainRow(lines, &failed);
  out += StrCat(",\"ok\":", failed ? "false" : "true", "}");
  std::printf("%s\n", out.c_str());
  if (failed) {
    std::fprintf(stderr, "bench_serve: run FAILED (see JSON)\n");
    return 1;
  }
  return 0;
}
