// mate_server — resident multi-tenant serving front-end for a MATE corpus +
// index. Opens ONE shared Session (phased: the process accepts connections
// while postings and corpus cells stream in), then serves the wire protocol
// in src/server/protocol.h until SIGINT/SIGTERM, at which point it drains
// gracefully: in-flight queries finish, new ones are shed with kOverloaded,
// and the process exits 0.
//
//   mate_server --corpus F --index F [--host 127.0.0.1] [--port 0]
//               [--port-file PATH] [--threads N] [--queue-depth 64]
//               [--max-connections 256] [--max-tenants 64] [--cache-mb 64]
//               [--tenant-cache-mb 0] [--slow-query-ms 0]
//               [--slow-query-log PATH] [--steering=off|auto]
//               [--target-p99-ms 0]
//
// --port 0 binds an ephemeral port; --port-file writes the resolved port as
// a single line so scripts (CI smoke, the tail-latency bench) can find the
// server without racing its stdout. --threads sizes the session's pool,
// which fans one query out (0 = every core); the server runs
// max(1, cores / threads) dispatchers, each executing one query at a time.
// So the default --threads 1 serves one query per core, each serially,
// which suits many small queries; --threads 0 serves one query at a time
// with every core on it, which suits a few giant ones. --tenant-cache-mb
// gives every tenant's result-cache partition an independent byte budget;
// 0 leaves partitions on the session-wide default. --max-tenants bounds
// how many distinct tenant rows (counters, metric series, cache
// partitions) can exist; overflow tenants share the "__other__" row.
// --slow-query-ms arms per-request tracing: queries slower than the
// threshold dump their span tree as one JSONL line to --slow-query-log
// (stderr when unset); 0 disables tracing entirely. --steering=auto turns
// on SLO-aware fan-out steering at each dispatcher's dequeue point: big
// queries fan out across the pool only when the queue is shallow and the
// live p99 is within --target-p99-ms (0 disables the latency term; queue
// depth still steers). Flags accept both "--key value" and "--key=value".

#include <signal.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "core/session.h"
#include "server/server.h"
#include "util/string_util.h"

namespace mate {
namespace {

// Self-pipe written by the signal handler; main blocks reading it.
int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int /*signo*/) {
  const char byte = 's';
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int Usage() {
  std::cerr << "usage:\n"
               "  mate_server --corpus F --index F [--host 127.0.0.1]"
               " [--port 0] [--port-file PATH] [--threads N]"
               " [--queue-depth 64] [--max-connections 256]"
               " [--max-tenants 64] [--cache-mb 64] [--tenant-cache-mb 0]"
               " [--slow-query-ms 0] [--slow-query-log PATH]"
               " [--steering=off|auto] [--target-p99-ms 0]\n";
  return 2;
}

bool ParseFlags(int argc, char** argv, int first,
                std::map<std::string, std::string>* flags) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    key = key.substr(2);
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      (*flags)[key.substr(0, eq)] = key.substr(eq + 1);
      continue;
    }
    if (i + 1 >= argc) return false;
    (*flags)[key] = argv[++i];
  }
  return true;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

int Run(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  if (!ParseFlags(argc, argv, 1, &flags)) return Usage();
  const std::string corpus_path = FlagOr(flags, "corpus", "");
  const std::string index_path = FlagOr(flags, "index", "");
  if (corpus_path.empty() || index_path.empty()) return Usage();

  auto port = ParseUintFlag("port", FlagOr(flags, "port", "0"), 65535);
  if (!port.ok()) return Fail(port.status());
  auto threads = ParseUintFlag("threads", FlagOr(flags, "threads", "1"),
                               1024);
  if (!threads.ok()) return Fail(threads.status());
  auto queue_depth =
      ParseUintFlag("queue-depth", FlagOr(flags, "queue-depth", "64"),
                    1u << 20);
  if (!queue_depth.ok()) return Fail(queue_depth.status());
  auto max_connections = ParseUintFlag(
      "max-connections", FlagOr(flags, "max-connections", "256"), 1u << 16);
  if (!max_connections.ok()) return Fail(max_connections.status());
  if (*max_connections == 0) {
    return Fail(Status::InvalidArgument("--max-connections must be >= 1"));
  }
  auto cache_mb =
      ParseUintFlag("cache-mb", FlagOr(flags, "cache-mb", "64"), 1u << 20);
  if (!cache_mb.ok()) return Fail(cache_mb.status());
  auto tenant_cache_mb = ParseUintFlag(
      "tenant-cache-mb", FlagOr(flags, "tenant-cache-mb", "0"), 1u << 20);
  if (!tenant_cache_mb.ok()) return Fail(tenant_cache_mb.status());
  auto slow_query_ms = ParseUintFlag(
      "slow-query-ms", FlagOr(flags, "slow-query-ms", "0"), 1u << 30);
  if (!slow_query_ms.ok()) return Fail(slow_query_ms.status());
  auto max_tenants = ParseUintFlag(
      "max-tenants", FlagOr(flags, "max-tenants", "64"), 1u << 16);
  if (!max_tenants.ok()) return Fail(max_tenants.status());
  if (*max_tenants == 0) {
    return Fail(Status::InvalidArgument("--max-tenants must be >= 1"));
  }
  auto target_p99_ms = ParseUintFlag(
      "target-p99-ms", FlagOr(flags, "target-p99-ms", "0"), 1u << 30);
  if (!target_p99_ms.ok()) return Fail(target_p99_ms.status());
  const std::string steering = FlagOr(flags, "steering", "off");
  if (steering != "off" && steering != "auto") {
    return Fail(Status::InvalidArgument(
        "--steering must be 'off' or 'auto', got '" + steering + "'"));
  }

  SessionOptions session_options;
  session_options.corpus_path = corpus_path;
  session_options.index_path = index_path;
  session_options.num_threads = *threads;
  session_options.cache_bytes = size_t{*cache_mb} << 20;
  auto session = Session::Open(std::move(session_options));
  if (!session.ok()) return Fail(session.status());

  ServerOptions server_options;
  server_options.host = FlagOr(flags, "host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(*port);
  server_options.max_queue_depth = *queue_depth;
  server_options.max_connections = *max_connections;
  server_options.tenant_cache_bytes = size_t{*tenant_cache_mb} << 20;
  server_options.max_tenants = *max_tenants;
  server_options.steering =
      steering == "auto" ? SteeringMode::kAuto : SteeringMode::kOff;
  server_options.target_p99 = std::chrono::milliseconds(*target_p99_ms);
  server_options.slow_query_threshold =
      std::chrono::milliseconds(*slow_query_ms);
  server_options.slow_query_log_path = FlagOr(flags, "slow-query-log", "");

  // Belt and braces next to WriteFrame's MSG_NOSIGNAL: a client that hangs
  // up before its response is written must never SIGPIPE the server.
  // Installed before Start() so no accepted connection predates it.
  struct sigaction ignore_pipe;
  std::memset(&ignore_pipe, 0, sizeof(ignore_pipe));
  ignore_pipe.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &ignore_pipe, nullptr);

  MateServer server(&session.value(), server_options);
  if (Status s = server.Start(); !s.ok()) return Fail(s);
  std::cout << "mate_server listening on " << server_options.host << ":"
            << server.port() << " (queue depth "
            << server_options.max_queue_depth << ", "
            << server.dispatchers() << " dispatchers)" << std::endl;

  const std::string port_file = FlagOr(flags, "port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
    if (!out) {
      server.Stop();
      return Fail(Status::IOError("cannot write --port-file " + port_file));
    }
  }

  if (::pipe(g_signal_pipe) < 0) {
    server.Stop();
    return Fail(Status::IOError("pipe() failed: " +
                                std::string(std::strerror(errno))));
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::cout << "draining: finishing in-flight queries, shedding new ones"
            << std::endl;
  server.Stop();
  std::cout << server.stats().ToString();
  return 0;
}

}  // namespace
}  // namespace mate

int main(int argc, char** argv) { return mate::Run(argc, argv); }
