// End-to-end tests for the mate_server serving front-end: ephemeral-port
// lifecycle, wire round-trips bit-identical to in-process discovery,
// concurrent multi-tenant clients, malformed-frame handling (typed errors,
// never crashes), deterministic queue-full sheds via the dispatcher test
// hook, and graceful drain of admitted in-flight queries on Stop().

#include "server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "server/client.h"
#include "server/protocol.h"
#include "util/coding.h"

namespace mate {
namespace {

// ---- fixtures (the Figure 1 lake, as in session_test) ----------------

Corpus MakeLake() {
  Corpus corpus;
  Table t1("people_de");
  t1.AddColumn("Vorname");
  t1.AddColumn("Nachname");
  t1.AddColumn("Land");
  (void)t1.AppendRow({"Helmut", "Newton", "Germany"});
  (void)t1.AppendRow({"Muhammad", "Lee", "US"});
  (void)t1.AppendRow({"Ansel", "Adams", "UK"});
  (void)t1.AppendRow({"Muhammad", "Lee", "Germany"});
  corpus.AddTable(std::move(t1));

  Table t2("partial_match");
  t2.AddColumn("first");
  t2.AddColumn("last");
  (void)t2.AppendRow({"Muhammad", "Lee"});
  (void)t2.AppendRow({"Grace", "Hopper"});
  corpus.AddTable(std::move(t2));
  return corpus;
}

Table MakeQuery() {
  Table query("q");
  query.AddColumn("first");
  query.AddColumn("last");
  query.AddColumn("country");
  (void)query.AppendRow({"Muhammad", "Lee", "US"});
  (void)query.AppendRow({"Helmut", "Newton", "Germany"});
  (void)query.AppendRow({"Ansel", "Adams", "UK"});
  return query;
}

// A test hook that sleeps `delay` at its point in the server.
std::function<void()> SleepFor(std::chrono::milliseconds delay) {
  return [delay] { std::this_thread::sleep_for(delay); };
}

Session OpenLakeSession(size_t cache_bytes = 1 << 20) {
  SessionOptions options;
  options.corpus = MakeLake();
  options.build_index = true;
  options.cache_bytes = cache_bytes;
  options.num_threads = 1;
  auto session = Session::Open(std::move(options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(*session);
}

/// Ground truth from a second, independent session over the same lake: the
/// server must serve results bit-identical to in-process discovery.
DiscoveryResult DirectDiscover(const Table& query,
                               const std::vector<ColumnId>& key, int k = 5) {
  Session session = OpenLakeSession(/*cache_bytes=*/0);
  QuerySpec spec;
  spec.table = &query;
  spec.key_columns = key;
  spec.options.k = k;
  auto result = session.Discover(spec);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

void ExpectServedMatches(const std::vector<ServedResult>& served,
                         const DiscoveryResult& expected) {
  ASSERT_EQ(served.size(), expected.top_k.size());
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].table_id, expected.top_k[i].table_id) << "rank " << i;
    EXPECT_EQ(served[i].joinability, expected.top_k[i].joinability)
        << "rank " << i;
    EXPECT_EQ(served[i].mapping, expected.top_k[i].best_mapping)
        << "rank " << i;
    EXPECT_EQ(served[i].mapping_names.size(), served[i].mapping.size());
  }
}

/// A raw TCP connection for speaking deliberately broken protocol.
int ConnectRaw(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// ---- lifecycle -------------------------------------------------------

TEST(ServerTest, StartsOnEphemeralPortAndStopsIdempotently) {
  Session session = OpenLakeSession();
  MateServer server(&session, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_NE(server.port(), 0);

  auto client = MateClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());

  server.Stop();
  server.Stop();  // idempotent
  // The destructor's drain is also a no-op after an explicit Stop().
}

// ---- round trips -----------------------------------------------------

TEST(ServerTest, QueryRoundTripIsBitIdenticalToDirectDiscover) {
  Session session = OpenLakeSession();
  MateServer server(&session, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  const DiscoveryResult expected = DirectDiscover(query, {0, 1});

  auto client = MateClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response =
      client->Query(MakeQueryRequest(query, {0, 1}, /*k=*/5, "acme"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  ExpectServedMatches(response->results, expected);
  // The lake's exact shape: people_de joins all 3 combos, partial_match 1.
  ASSERT_GE(response->results.size(), 2u);
  EXPECT_EQ(response->results[0].table_name, "people_de");
  EXPECT_EQ(response->results[0].joinability, 3);
  EXPECT_EQ(response->results[1].table_name, "partial_match");
  EXPECT_EQ(response->results[1].joinability, 1);
  EXPECT_EQ(response->results[0].mapping_names,
            (std::vector<std::string>{"Vorname", "Nachname"}));
  server.Stop();
}

TEST(ServerTest, ConcurrentMultiTenantClientsAreBitIdentical) {
  Session session = OpenLakeSession();
  ServerOptions options;
  options.tenant_cache_bytes = 1 << 18;
  // The exact hit/miss split below needs one dispatcher: two dispatchers
  // may both miss on the same query before either inserts it.
  // DispatcherPoolServesBitIdenticalResults covers the pool.
  ServerTestHooks hooks;
  hooks.dispatchers = 1;
  MateServer server(&session, options, hooks);
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  const DiscoveryResult expected2 = DirectDiscover(query, {0, 1});
  const DiscoveryResult expected3 = DirectDiscover(query, {0, 1, 2});

  constexpr int kClients = 6;
  constexpr int kQueriesEach = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = MateClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::string tenant = (c % 2 == 0) ? "acme" : "globex";
      for (int i = 0; i < kQueriesEach; ++i) {
        const bool wide = (c + i) % 2 == 0;
        const std::vector<ColumnId> key =
            wide ? std::vector<ColumnId>{0, 1, 2}
                 : std::vector<ColumnId>{0, 1};
        auto response =
            client->Query(MakeQueryRequest(query, key, /*k=*/5, tenant));
        if (!response.ok() || !response->status.ok()) {
          failures.fetch_add(1);
          continue;
        }
        ExpectServedMatches(response->results, wide ? expected3 : expected2);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.admitted, kClients * kQueriesEach);
  EXPECT_EQ(stats.completed, kClients * kQueriesEach);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.latency_count, kClients * kQueriesEach);
  ASSERT_EQ(stats.tenants.size(), 2u);  // acme + globex, sorted
  EXPECT_EQ(stats.tenants[0].tenant, "acme");
  EXPECT_EQ(stats.tenants[1].tenant, "globex");
  EXPECT_EQ(stats.tenants[0].requests + stats.tenants[1].requests,
            static_cast<uint64_t>(kClients * kQueriesEach));
  // Per-tenant cache partitions were budgeted on first contact and soak up
  // the repeats: 2 distinct fingerprints per tenant, the rest are hits.
  EXPECT_EQ(stats.tenants[0].cache_capacity_bytes, 1u << 18);
  EXPECT_EQ(stats.cache_misses, 4u);
  EXPECT_EQ(stats.cache_hits, kClients * kQueriesEach - 4u);
  server.Stop();
}

TEST(ServerTest, DispatcherPoolServesBitIdenticalResults) {
  const Table query = MakeQuery();
  const DiscoveryResult expected2 = DirectDiscover(query, {0, 1});
  const DiscoveryResult expected3 = DirectDiscover(query, {0, 1, 2});
  for (const size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
    SCOPED_TRACE(cache_bytes > 0 ? "cache on" : "cache off");
    Session session = OpenLakeSession(cache_bytes);
    // Each dispatch holds its dispatcher for a moment, so the eight
    // clients keep several dispatchers busy at once.
    std::mutex mu;
    int dispatching = 0;
    int most_at_once = 0;
    ServerTestHooks hooks;
    hooks.dispatchers = 4;
    hooks.before_dispatch = [&] {
      {
        std::lock_guard<std::mutex> lock(mu);
        most_at_once = std::max(most_at_once, ++dispatching);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      std::lock_guard<std::mutex> lock(mu);
      --dispatching;
    };
    MateServer server(&session, ServerOptions{}, hooks);
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.dispatchers(), 4u);

    constexpr int kClients = 8;
    constexpr int kQueriesEach = 12;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        auto client = MateClient::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          failures.fetch_add(1);
          return;
        }
        const std::string tenant = c % 2 == 0 ? "acme" : "globex";
        for (int i = 0; i < kQueriesEach; ++i) {
          const bool wide = (c + i) % 3 == 0;
          const std::vector<ColumnId> key =
              wide ? std::vector<ColumnId>{0, 1, 2}
                   : std::vector<ColumnId>{0, 1};
          auto response =
              client->Query(MakeQueryRequest(query, key, /*k=*/5, tenant));
          if (!response.ok() || !response->status.ok()) {
            failures.fetch_add(1);
            continue;
          }
          ExpectServedMatches(response->results,
                              wide ? expected3 : expected2);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(most_at_once, 1) << "the dispatchers never overlapped";

    const ServerStatsSnapshot stats = server.stats();
    EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kClients * kQueriesEach));
    EXPECT_EQ(stats.completed, stats.admitted);
    EXPECT_EQ(stats.shed, 0u);
    auto observer = MateClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(observer.ok()) << observer.status().ToString();
    auto page = observer->Metrics();
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    const auto metric = [&page](const std::string& series) {
      const size_t pos = page->find("\n" + series + " ");
      EXPECT_NE(pos, std::string::npos) << series << " missing:\n" << *page;
      return pos == std::string::npos
                 ? ~0ull
                 : std::stoull(page->substr(pos + series.size() + 2));
    };
    EXPECT_EQ(metric("mate_query_latency_seconds_count"), stats.completed);
    EXPECT_EQ(metric("mate_queries_completed_total"), stats.completed);
    EXPECT_EQ(metric("mate_dispatchers"), 4u);
    server.Stop();
  }
}

TEST(ServerTest, StatsVerbServesTheObservabilitySnapshot) {
  Session session = OpenLakeSession();
  MateServer server(&session, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  auto client = MateClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto r1 = client->Query(MakeQueryRequest(query, {0, 1}, 5, "acme"));
  ASSERT_TRUE(r1.ok());
  auto r2 = client->Query(MakeQueryRequest(query, {0, 1}, 5, "acme"));
  ASSERT_TRUE(r2.ok());

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->queue_capacity, ServerOptions{}.max_queue_depth);
  EXPECT_EQ(stats->admitted, 2u);
  EXPECT_EQ(stats->completed, 2u);
  EXPECT_EQ(stats->shed, 0u);
  EXPECT_FALSE(stats->draining);
  EXPECT_GE(stats->active_connections, 1u);
  EXPECT_EQ(stats->latency_count, 2u);
  EXPECT_GE(stats->latency_max_us, stats->latency_p50_us);
  EXPECT_GT(stats->total_query_seconds, 0.0);
  EXPECT_EQ(stats->num_tables, 2u);  // the lake
  EXPECT_EQ(stats->cache_hits, 1u);  // the repeat hit acme's partition
  // Steering is off by default: no decisions are ever counted.
  EXPECT_EQ(stats->steering_serial, 0u);
  EXPECT_EQ(stats->steering_partial, 0u);
  EXPECT_EQ(stats->steering_full, 0u);
  ASSERT_EQ(stats->tenants.size(), 1u);
  EXPECT_EQ(stats->tenants[0].tenant, "acme");
  EXPECT_EQ(stats->tenants[0].requests, 2u);
  EXPECT_EQ(stats->tenants[0].admitted, 2u);
  EXPECT_EQ(stats->tenants[0].cache_entries, 1u);
  server.Stop();
}

// ---- malformed input -------------------------------------------------

TEST(ServerTest, MalformedFramesGetTypedErrorsAndConnectionSurvives) {
  Session session = OpenLakeSession();
  MateServer server(&session, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectRaw(server.port());

  const auto expect_error_reply = [&](std::string_view payload) {
    ASSERT_TRUE(WriteFrame(fd, payload).ok());
    std::string response;
    ASSERT_TRUE(ReadFrame(fd, &response).ok());
    Status server_status;
    std::string_view body;
    ASSERT_TRUE(DecodeResponseStatus(response, &server_status, &body).ok());
    EXPECT_TRUE(server_status.IsInvalidArgument())
        << server_status.ToString();
  };

  expect_error_reply("");                  // empty payload: no verb byte
  expect_error_reply("\x7f");              // unknown verb
  expect_error_reply("\x01garbage-body");  // QUERY body that fails decode

  // A truncated-but-framed QUERY: valid tenant, then the body just ends.
  std::string truncated;
  truncated.push_back('\x01');
  PutLengthPrefixed(&truncated, "tenant");
  expect_error_reply(truncated);

  // The connection survived all four: a well-formed PING still round-trips.
  std::string ping;
  EncodePingRequest(&ping);
  ASSERT_TRUE(WriteFrame(fd, ping).ok());
  std::string response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  Status server_status;
  std::string_view body;
  ASSERT_TRUE(DecodeResponseStatus(response, &server_status, &body).ok());
  EXPECT_TRUE(server_status.ok());

  ::close(fd);
  server.Stop();
}

TEST(ServerTest, OversizedFrameIsRefusedAndStreamClosed) {
  Session session = OpenLakeSession();
  MateServer server(&session, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectRaw(server.port());

  // Declare a frame bigger than kMaxFrameBytes: the declared length cannot
  // be trusted, so the server answers once and closes the stream.
  std::string header;
  PutFixed32(&header, kMaxFrameBytes + 1);
  ASSERT_EQ(::send(fd, header.data(), header.size(), 0),
            static_cast<ssize_t>(header.size()));

  std::string response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  Status server_status;
  std::string_view body;
  ASSERT_TRUE(DecodeResponseStatus(response, &server_status, &body).ok());
  EXPECT_TRUE(server_status.IsInvalidArgument()) << server_status.ToString();

  // The server hung up: the next read hits EOF, not a frame.
  Status eof = ReadFrame(fd, &response);
  EXPECT_TRUE(eof.IsNotFound()) << eof.ToString();
  ::close(fd);
  server.Stop();
}

// ---- misbehaving clients --------------------------------------------

TEST(ServerTest, WriteFrameToHungUpPeerFailsTypedInsteadOfSigpipe) {
  // A peer that hung up must surface as an IOError from WriteFrame. With a
  // plain write(2) this raises SIGPIPE (default disposition: kill the
  // process — every tenant of a multi-tenant server); MSG_NOSIGNAL keeps
  // it a per-connection EPIPE. The closed socketpair end makes the very
  // first send fail, so this test dies without the fix.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);
  Status s = WriteFrame(sv[0], "response for a client that is gone");
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  ::close(sv[0]);
}

TEST(ServerTest, ClientDisconnectBeforeResponseDoesNotKillServer) {
  Session session = OpenLakeSession();
  ServerOptions options;
  ServerTestHooks hooks;
  hooks.before_dispatch = SleepFor(std::chrono::milliseconds(50));
  MateServer server(&session, options, hooks);
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  std::string payload;
  EncodeQueryRequest(MakeQueryRequest(query, {0, 1}, 5, "t"), &payload);

  // Send a QUERY, then hard-close before the dispatch delay elapses.
  // SO_LINGER(0) turns the close into an RST, so the server's response
  // write hits a reset connection: it must fail with EPIPE, not raise
  // SIGPIPE and kill the whole multi-tenant process (and this test).
  int fd = ConnectRaw(server.port());
  ASSERT_TRUE(WriteFrame(fd, payload).ok());
  struct linger hard_close = {1, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close,
                         sizeof(hard_close)),
            0);
  ::close(fd);

  // The admitted query still completes server-side; the failed response
  // write only ends that one connection.
  while (server.stats().completed < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The server survived: a fresh client still round-trips a full query.
  const DiscoveryResult expected = DirectDiscover(query, {0, 1});
  auto client = MateClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto response = client->Query(MakeQueryRequest(query, {0, 1}, 5, "t"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  ExpectServedMatches(response->results, expected);
  server.Stop();
}

TEST(ServerTest, ConnectionChurnDrainsTheRegistry) {
  Session session = OpenLakeSession();
  MateServer server(&session, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // Many short-lived connections: each must deregister itself on hangup —
  // a resident server must not accumulate dead thread handles or fd slots.
  for (int i = 0; i < 20; ++i) {
    auto client = MateClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client->Ping().ok());
  }

  // Deregistration is asynchronous (the reader thread sees EOF first). The
  // count falls in the same critical section that erases the record.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().active_connections > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().active_connections, 0u);
  server.Stop();
}

TEST(ServerTest, AcceptsBeyondConnectionLimitAreShedWithOverloaded) {
  Session session = OpenLakeSession();
  ServerOptions options;
  options.max_connections = 1;
  MateServer server(&session, options);
  ASSERT_TRUE(server.Start().ok());

  {
    auto first = MateClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(first->Ping().ok());

    // With the slot taken, the next accept is shed: one typed kOverloaded
    // frame (unsolicited — read without sending), then the server hangs up.
    int fd = ConnectRaw(server.port());
    std::string response;
    ASSERT_TRUE(ReadFrame(fd, &response).ok());
    Status server_status;
    std::string_view body;
    ASSERT_TRUE(DecodeResponseStatus(response, &server_status, &body).ok());
    EXPECT_TRUE(server_status.IsOverloaded()) << server_status.ToString();
    EXPECT_TRUE(ReadFrame(fd, &response).IsNotFound());
    ::close(fd);
  }

  // The first client hung up; once its record drains, the slot frees and a
  // new connection is admitted again.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().active_connections > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto third = MateClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_TRUE(third->Ping().ok());
  server.Stop();
}

// ---- admission control ----------------------------------------------

TEST(ServerTest, QueueFullShedsWithOverloaded) {
  Session session = OpenLakeSession();
  ServerOptions options;
  options.max_queue_depth = 2;
  ServerTestHooks hooks;
  hooks.before_dispatch = SleepFor(std::chrono::milliseconds(50));
  // One dispatcher plus two queue slots: eight clients must overflow them
  // however many cores the host has.
  hooks.dispatchers = 1;
  MateServer server(&session, options, hooks);
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  const DiscoveryResult expected = DirectDiscover(query, {0, 1});

  constexpr int kClients = 8;
  constexpr int kQueriesEach = 2;
  std::atomic<int> served{0};
  std::atomic<int> shed{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto client = MateClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kQueriesEach; ++i) {
        auto response =
            client->Query(MakeQueryRequest(query, {0, 1}, 5, "t"));
        if (!response.ok()) {
          failures.fetch_add(1);
        } else if (response->status.IsOverloaded()) {
          shed.fetch_add(1);  // a typed shed, not a dropped connection
        } else if (response->status.ok()) {
          ExpectServedMatches(response->results, expected);
          served.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(shed.load(), 0);    // 16 requests vs capacity ~20/s must shed
  EXPECT_GT(served.load(), 0);  // but admitted ones are all served
  EXPECT_EQ(served.load() + shed.load(), kClients * kQueriesEach);

  const ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.shed, static_cast<uint64_t>(shed.load()));
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(served.load()));
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].shed, static_cast<uint64_t>(shed.load()));
  server.Stop();
}

TEST(ServerTest, StopDrainsAdmittedInFlightQueries) {
  Session session = OpenLakeSession();
  ServerOptions options;
  options.max_queue_depth = 8;
  ServerTestHooks hooks;
  hooks.before_dispatch = SleepFor(std::chrono::milliseconds(50));
  MateServer server(&session, options, hooks);
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  const DiscoveryResult expected = DirectDiscover(query, {0, 1});

  std::atomic<int> served{0};
  std::thread client_thread([&] {
    auto client = MateClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    auto response = client->Query(MakeQueryRequest(query, {0, 1}, 5, "t"));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->status.ok()) << response->status.ToString();
    ExpectServedMatches(response->results, expected);
    served.fetch_add(1);
  });

  // Wait until the query is admitted (it sits behind the 50ms dispatch
  // delay), then stop: the drain must complete it, not drop it.
  while (server.stats().admitted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  client_thread.join();
  EXPECT_EQ(served.load(), 1);
  EXPECT_EQ(server.stats().completed, 1u);

  // After the drain the port no longer accepts new work.
  auto late = MateClient::Connect("127.0.0.1", server.port());
  if (late.ok()) {
    auto response = late->Query(MakeQueryRequest(query, {0, 1}, 5, "t"));
    EXPECT_TRUE(!response.ok() || response->status.IsOverloaded());
  }
}

// ---- METRICS verb + slow-query log -----------------------------------

TEST(ServerTest, MetricsVerbServesPrometheusPageMatchingAdmissions) {
  Session session = OpenLakeSession();
  MateServer server(&session, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  auto client = MateClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 3; ++i) {
    auto response = client->Query(MakeQueryRequest(query, {0, 1}, 5, "t"));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  }

  auto page = client->Metrics();
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  for (const char* series :
       {"# TYPE mate_queries_total counter", "mate_queries_total 3",
        "# TYPE mate_queue_depth gauge",
        "# TYPE mate_query_latency_seconds histogram",
        "mate_query_latency_seconds_count 3",
        "mate_queries_completed_total 3",
        "mate_tenant_requests_total{tenant=\"t\"} 3",
        "mate_requests_total{verb=\"query\"} 3",
        // Monotone session-owned counts are typed counter (rate() works),
        // advanced by delta at render time.
        "# TYPE mate_result_cache_hits counter",
        "# TYPE mate_result_cache_misses counter",
        "# TYPE mate_corpus_evictions counter",
        "# TYPE mate_steering_decisions_total counter",
        "mate_result_cache_hits 2", "mate_result_cache_misses 1"}) {
    EXPECT_NE(page->find(series), std::string::npos)
        << "missing from page:\n" << series << "\npage:\n" << *page;
  }
  // Every line is either a comment or `name{labels} value`.
  size_t start = 0;
  while (start < page->size()) {
    size_t end = page->find('\n', start);
    ASSERT_NE(end, std::string::npos) << "page must end with a newline";
    const std::string line = page->substr(start, end - start);
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    start = end + 1;
  }
  server.Stop();
}

TEST(ServerTest, SlowQueriesDumpTheirSpanTreeAsJsonl) {
  Session session = OpenLakeSession();
  ServerOptions options;
  // Every query is "slow": the dispatcher sleeps 20ms against a 1ms
  // threshold, so the log line is deterministic.
  options.slow_query_threshold = std::chrono::milliseconds(1);
  const std::string log_path =
      testing::TempDir() + "/mate_slow_query_test.jsonl";
  std::remove(log_path.c_str());
  options.slow_query_log_path = log_path;
  ServerTestHooks hooks;
  hooks.before_dispatch = SleepFor(std::chrono::milliseconds(20));
  MateServer server(&session, options, hooks);
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  const DiscoveryResult expected = DirectDiscover(query, {0, 1});
  auto client = MateClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = client->Query(MakeQueryRequest(query, {0, 1}, 5, "acme"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  ExpectServedMatches(response->results, expected);
  server.Stop();

  std::ifstream log(log_path);
  ASSERT_TRUE(log.is_open()) << log_path;
  std::string line;
  ASSERT_TRUE(std::getline(log, line)) << "expected one slow-query record";
  for (const char* needle :
       {"\"tenant\":\"acme\"", "\"status\":\"ok\"", "\"wall_us\":",
        "\"name\":\"request\"", "\"name\":\"queue_wait\"",
        "\"name\":\"dispatch\"", "\"name\":\"discover\"",
        "\"name\":\"write_frame\""}) {
    EXPECT_NE(line.find(needle), std::string::npos)
        << "missing " << needle << " in: " << line;
  }
  EXPECT_FALSE(std::getline(log, line)) << "exactly one record expected";

  auto page_client = MateClient::Connect("127.0.0.1", server.port());
  EXPECT_FALSE(page_client.ok()) << "server is stopped";
}

TEST(ServerTest, FastQueriesUnderThresholdAreNotLogged) {
  Session session = OpenLakeSession();
  ServerOptions options;
  options.slow_query_threshold = std::chrono::seconds(30);
  const std::string log_path =
      testing::TempDir() + "/mate_slow_query_quiet_test.jsonl";
  std::remove(log_path.c_str());
  options.slow_query_log_path = log_path;
  MateServer server(&session, options);
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  auto client = MateClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = client->Query(MakeQueryRequest(query, {0, 1}, 5, "t"));
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->status.ok());
  server.Stop();

  std::ifstream log(log_path);
  ASSERT_TRUE(log.is_open()) << "log file is created when armed";
  std::string line;
  EXPECT_FALSE(std::getline(log, line))
      << "no query crossed the threshold, log must be empty: " << line;
}

// ---- tenant cardinality ----------------------------------------------

TEST(ServerTest, TenantChurnIsBoundedByMaxTenants) {
  Session session = OpenLakeSession();
  ServerOptions options;
  options.max_tenants = 8;
  options.tenant_cache_bytes = 1 << 16;
  MateServer server(&session, options);
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  const DiscoveryResult expected = DirectDiscover(query, {0, 1});
  auto client = MateClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // An adversarial client cycling through 10k distinct tenant names must
  // not mint 10k counter rows, metric series, or cache partitions: the
  // first max_tenants-1 names get dedicated rows, the rest fold into the
  // shared overflow row.
  constexpr int kNames = 10000;
  for (int i = 0; i < kNames; ++i) {
    auto response = client->Query(
        MakeQueryRequest(query, {0, 1}, 5, "t" + std::to_string(i)));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->status.ok()) << response->status.ToString();
    if (i % 997 == 0) ExpectServedMatches(response->results, expected);
  }

  const ServerStatsSnapshot stats = server.stats();
  ASSERT_EQ(stats.tenants.size(), 8u);
  uint64_t total_requests = 0;
  const TenantStats* overflow = nullptr;
  for (const TenantStats& t : stats.tenants) {
    total_requests += t.requests;
    if (t.tenant == kOverflowTenant) overflow = &t;
  }
  EXPECT_EQ(total_requests, static_cast<uint64_t>(kNames));
  ASSERT_NE(overflow, nullptr) << "overflow row must exist";
  // 7 dedicated rows (t0..t6), everything else shares __other__.
  EXPECT_EQ(overflow->requests, static_cast<uint64_t>(kNames - 7));
  // The overflow row's partition was budgeted once and soaks up repeats:
  // one miss, then hits for every folded tenant.
  EXPECT_EQ(overflow->cache_capacity_bytes, 1u << 16);
  EXPECT_EQ(overflow->cache_misses, 1u);
  EXPECT_EQ(overflow->cache_hits, static_cast<uint64_t>(kNames - 8));

  // The metric registry is bounded too: exactly 8 tenant series.
  auto page = client->Metrics();
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  size_t series = 0;
  const std::string needle = "mate_tenant_requests_total{tenant=";
  for (size_t pos = page->find(needle); pos != std::string::npos;
       pos = page->find(needle, pos + 1)) {
    ++series;
  }
  EXPECT_EQ(series, 8u);
  server.Stop();
}

TEST(ServerTest, OversizedTenantNameIsRejectedAtDecode) {
  Session session = OpenLakeSession();
  MateServer server(&session, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  auto client = MateClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = client->Query(MakeQueryRequest(
      query, {0, 1}, 5, std::string(kMaxTenantNameBytes + 1, 'x')));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.IsInvalidArgument())
      << response->status.ToString();
  EXPECT_NE(response->status.message().find("tenant name"),
            std::string::npos)
      << response->status.ToString();

  // No tenant row was minted for the rejected name, and the connection
  // survived: a name at the limit is accepted.
  EXPECT_EQ(server.stats().tenants.size(), 0u);
  auto ok_response = client->Query(MakeQueryRequest(
      query, {0, 1}, 5, std::string(kMaxTenantNameBytes, 'x')));
  ASSERT_TRUE(ok_response.ok());
  EXPECT_TRUE(ok_response->status.ok()) << ok_response->status.ToString();
  EXPECT_EQ(server.stats().tenants.size(), 1u);
  server.Stop();
}

// ---- first-admission partition configuration -------------------------

TEST(ServerTest, PartitionConfigureRunsOutsideTheQueueLock) {
  Session session = OpenLakeSession();
  ServerOptions options;
  options.tenant_cache_bytes = 1 << 18;
  // Simulate a slow ResultCache resize: pre-hoist this sleep sat inside
  // queue_mu_ and stalled every concurrent admit/shed/stats behind it.
  std::atomic<int> configures{0};
  ServerTestHooks hooks;
  hooks.before_configure_partition = [&configures] {
    configures.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  };
  MateServer server(&session, options, hooks);
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  const DiscoveryResult expected = DirectDiscover(query, {0, 1});

  // Four racing first admissions of the same tenant.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      auto client = MateClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      auto response =
          client->Query(MakeQueryRequest(query, {0, 1}, 5, "acme"));
      if (!response.ok() || !response->status.ok()) {
        failures.fetch_add(1);
        return;
      }
      ExpectServedMatches(response->results, expected);
    });
  }

  // While the claiming thread sleeps in the configure step, stats() must
  // answer promptly — the queue lock is free.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  const ServerStatsSnapshot mid = server.stats();
  const auto stats_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(stats_ms.count(), 200)
      << "stats() stalled behind a partition configure";
  (void)mid;

  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Exactly one configure, however many first admissions raced.
  EXPECT_EQ(configures.load(), 1);
  const ServerStatsSnapshot stats = server.stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].cache_capacity_bytes, 1u << 18);
  EXPECT_EQ(stats.tenants[0].admitted, 4u);

  // A second tenant triggers its own (single) configure.
  auto client = MateClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = client->Query(MakeQueryRequest(query, {0, 1}, 5, "globex"));
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->status.ok());
  EXPECT_EQ(configures.load(), 2);
  server.Stop();
}

// ---- slow-query log covers shed and decode-error requests ------------

/// Writes one frame in two halves with a pause between them, so the
/// server-side frame read (and with it the request's wall clock) takes at
/// least `gap`.
void SendFrameSlowly(int fd, std::string_view payload,
                     std::chrono::milliseconds gap) {
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  const size_t split = 4 + payload.size() / 2;
  ASSERT_EQ(::send(fd, frame.data(), split, 0),
            static_cast<ssize_t>(split));
  std::this_thread::sleep_for(gap);
  ASSERT_EQ(::send(fd, frame.data() + split, frame.size() - split, 0),
            static_cast<ssize_t>(frame.size() - split));
}

Status ReadResponseStatus(int fd) {
  std::string response;
  Status s = ReadFrame(fd, &response);
  if (!s.ok()) return s;
  Status server_status;
  std::string_view body;
  s = DecodeResponseStatus(response, &server_status, &body);
  return s.ok() ? server_status : s;
}

TEST(ServerTest, ShedAndDecodeErrorRequestsAreSlowLogged) {
  Session session = OpenLakeSession();
  ServerOptions options;
  options.max_queue_depth = 1;
  options.slow_query_threshold = std::chrono::milliseconds(1);
  const std::string log_path =
      testing::TempDir() + "/mate_slow_query_shed_test.jsonl";
  std::remove(log_path.c_str());
  options.slow_query_log_path = log_path;
  ServerTestHooks hooks;
  hooks.before_dispatch = SleepFor(std::chrono::milliseconds(400));
  hooks.dispatchers = 1;  // the backlog below assumes one dispatcher
  MateServer server(&session, options, hooks);
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  std::string payload;
  EncodeQueryRequest(MakeQueryRequest(query, {0, 1}, 5, "a"), &payload);

  // q1 is popped by the dispatcher (which then sleeps 400ms); q2 fills the
  // one-deep queue; q3 — transmitted slowly — is shed on a full queue.
  int fd1 = ConnectRaw(server.port());
  ASSERT_TRUE(WriteFrame(fd1, payload).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  int fd2 = ConnectRaw(server.port());
  ASSERT_TRUE(WriteFrame(fd2, payload).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::string shed_payload;
  EncodeQueryRequest(MakeQueryRequest(query, {0, 1}, 5, "slowpoke"),
                     &shed_payload);
  int fd3 = ConnectRaw(server.port());
  SendFrameSlowly(fd3, shed_payload, std::chrono::milliseconds(50));
  Status shed_status = ReadResponseStatus(fd3);
  EXPECT_TRUE(shed_status.IsOverloaded()) << shed_status.ToString();

  // A malformed QUERY body, also transmitted slowly: the decode-error
  // path must end the trace and log too.
  int fd4 = ConnectRaw(server.port());
  SendFrameSlowly(fd4, "\x01garbage-body", std::chrono::milliseconds(50));
  Status decode_status = ReadResponseStatus(fd4);
  EXPECT_TRUE(decode_status.IsInvalidArgument()) << decode_status.ToString();

  // The two admitted queries are served normally.
  EXPECT_TRUE(ReadResponseStatus(fd1).ok());
  EXPECT_TRUE(ReadResponseStatus(fd2).ok());
  ::close(fd1);
  ::close(fd2);
  ::close(fd3);
  ::close(fd4);
  server.Stop();

  std::ifstream log(log_path);
  ASSERT_TRUE(log.is_open()) << log_path;
  std::string line;
  bool found_shed = false;
  bool found_decode_error = false;
  while (std::getline(log, line)) {
    if (line.find("\"tenant\":\"slowpoke\"") != std::string::npos) {
      found_shed = true;
      // The shed record carries the typed overload status, covers the
      // frame read (epoch rewind: wall includes the slow transmission),
      // and never reached the query pipeline.
      EXPECT_NE(line.find("queue full"), std::string::npos) << line;
      EXPECT_NE(line.find("\"name\":\"read_frame\""), std::string::npos)
          << line;
      EXPECT_EQ(line.find("\"name\":\"discover\""), std::string::npos)
          << line;
      const size_t wall_pos = line.find("\"wall_us\":");
      ASSERT_NE(wall_pos, std::string::npos) << line;
      EXPECT_GE(std::stoull(line.substr(wall_pos + 10)), 40000u)
          << "wall must include the slow frame read: " << line;
    } else if (line.find("\"tenant\":\"\"") != std::string::npos) {
      found_decode_error = true;
      EXPECT_NE(line.find("\"name\":\"read_frame\""), std::string::npos)
          << line;
      EXPECT_NE(line.find("\"name\":\"decode\""), std::string::npos) << line;
      EXPECT_EQ(line.find("\"name\":\"dispatch\""), std::string::npos)
          << line;
    }
  }
  EXPECT_TRUE(found_shed) << "shed request missing from the slow-query log";
  EXPECT_TRUE(found_decode_error)
      << "decode-error request missing from the slow-query log";
}

// ---- SLO-aware steering ----------------------------------------------

uint64_t MetricValue(const std::string& page, const std::string& series) {
  const size_t pos = page.find(series + " ");
  EXPECT_NE(pos, std::string::npos) << series << " missing from:\n" << page;
  if (pos == std::string::npos) return ~0ull;
  return std::stoull(page.substr(pos + series.size() + 1));
}

void ExpectSteeringCountsAgree(MateServer* server, MateClient* client) {
  const ServerStatsSnapshot stats = server->stats();
  auto page = client->Metrics();
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(
      MetricValue(*page, "mate_steering_decisions_total{mode=\"serial\"}"),
      stats.steering_serial);
  EXPECT_EQ(
      MetricValue(*page, "mate_steering_decisions_total{mode=\"partial\"}"),
      stats.steering_partial);
  EXPECT_EQ(
      MetricValue(*page, "mate_steering_decisions_total{mode=\"full\"}"),
      stats.steering_full);
}

TEST(ServerTest, SteeringFullFanoutWhenIdleIsBitIdentical) {
  Session session = OpenLakeSession();
  ServerOptions options;
  options.steering = SteeringMode::kAuto;
  options.steering_min_items = 0;  // every query counts as "big"
  MateServer server(&session, options);
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  const DiscoveryResult expected = DirectDiscover(query, {0, 1});
  auto client = MateClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 3; ++i) {
    auto response = client->Query(MakeQueryRequest(query, {0, 1}, 5, "t"));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->status.ok()) << response->status.ToString();
    ExpectServedMatches(response->results, expected);
  }

  // Idle queue, no SLO target: every decision is full fan-out.
  const ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.steering_full, 3u);
  EXPECT_EQ(stats.steering_serial, 0u);
  EXPECT_EQ(stats.steering_partial, 0u);
  ExpectSteeringCountsAgree(&server, &*client);
  server.Stop();
}

TEST(ServerTest, SteeringDegradesToSerialWhenOverSlo) {
  Session session = OpenLakeSession();
  ServerOptions options;
  options.steering = SteeringMode::kAuto;
  options.steering_min_items = 0;
  // Every served query takes >= 20ms (dispatch delay) against a 1ms
  // target, so the SLO is blown from the first completion onward.
  options.target_p99 = std::chrono::milliseconds(1);
  ServerTestHooks hooks;
  hooks.before_dispatch = SleepFor(std::chrono::milliseconds(20));
  MateServer server(&session, options, hooks);
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  const DiscoveryResult expected = DirectDiscover(query, {0, 1});
  auto client = MateClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // First query: no latency samples yet, queue idle -> full fan-out.
  // Second query: live p99 (~20ms) is over the 1ms target -> serial, and
  // the served result is still bit-identical.
  for (int i = 0; i < 2; ++i) {
    auto response = client->Query(MakeQueryRequest(query, {0, 1}, 5, "t"));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->status.ok()) << response->status.ToString();
    ExpectServedMatches(response->results, expected);
  }

  const ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.steering_full, 1u);
  EXPECT_EQ(stats.steering_serial, 1u);
  EXPECT_EQ(stats.steering_partial, 0u);
  ExpectSteeringCountsAgree(&server, &*client);
  server.Stop();
}

TEST(ServerTest, SteeringDegradesUnderQueuePressureAndStaysBitIdentical) {
  Session session = OpenLakeSession();
  ServerOptions options;
  options.steering = SteeringMode::kAuto;
  options.steering_min_items = 0;
  options.max_queue_depth = 4;  // "deep" at backlog >= 2
  ServerTestHooks hooks;
  hooks.before_dispatch = SleepFor(std::chrono::milliseconds(150));
  hooks.dispatchers = 1;  // the backlog below assumes one dispatcher
  MateServer server(&session, options, hooks);
  ASSERT_TRUE(server.Start().ok());

  const Table query = MakeQuery();
  const DiscoveryResult expected = DirectDiscover(query, {0, 1});
  std::string payload;
  EncodeQueryRequest(MakeQueryRequest(query, {0, 1}, 5, "t"), &payload);

  // q1 is dequeued against an empty queue (full fan-out), then sleeps in
  // the dispatcher while q2..q4 pile up: q2 sees a backlog of 2 (deep ->
  // serial), q3 a backlog of 1 (partial), q4 an empty queue again (full).
  int fds[4];
  fds[0] = ConnectRaw(server.port());
  ASSERT_TRUE(WriteFrame(fds[0], payload).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int i = 1; i < 4; ++i) {
    fds[i] = ConnectRaw(server.port());
    ASSERT_TRUE(WriteFrame(fds[i], payload).ok());
  }

  for (int i = 0; i < 4; ++i) {
    std::string response;
    ASSERT_TRUE(ReadFrame(fds[i], &response).ok()) << "query " << i;
    Status server_status;
    std::string_view body;
    ASSERT_TRUE(
        DecodeResponseStatus(response, &server_status, &body).ok());
    ASSERT_TRUE(server_status.ok()) << server_status.ToString();
    std::vector<ServedResult> results;
    ASSERT_TRUE(DecodeQueryResponseBody(body, &results).ok());
    ExpectServedMatches(results, expected);
    ::close(fds[i]);
  }

  const ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.steering_full, 2u);
  EXPECT_EQ(stats.steering_serial, 1u);
  EXPECT_EQ(stats.steering_partial, 1u);
  auto client = MateClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ExpectSteeringCountsAgree(&server, &*client);
  server.Stop();
}

}  // namespace
}  // namespace mate
