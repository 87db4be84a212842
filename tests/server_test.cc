// In-process loopback integration suite for the query server
// (src/server/): every test starts a real QueryServer on an ephemeral
// 127.0.0.1 port and talks to it through BlockingClient, over both
// protocols. Results are checked bit-for-bit against the library
// evaluated directly (an independent Alphabet/PlanCache/ExecEngine
// chain, so a serving-layer bug cannot cancel out). Also registered as
// `server_tsan` so the clang-tsan CI leg runs the whole reactor/worker
// handoff under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/alphabet.h"
#include "common/bitset.h"
#include "exec/engine.h"
#include "obs/journal.h"
#include "obs/recorder.h"
#include "server/client.h"
#include "server/server.h"
#include "server/service.h"
#include "tree/xml.h"
#include "workload/plan_cache.h"

namespace xptc {
namespace {

using server::BlockingClient;
using server::EvalMode;
using server::QueryServer;
using server::QueryService;
using server::RespCode;
using server::ServerOptions;
using server::ServiceOptions;
using server::ServiceResponse;

const char* const kXmls[] = {
    "<a><b><c/><b/></b><c><b/></c></a>",
    "<a><a><a/><b/></a><a><c/></a></a>",
    "<b><c><c><c/></c></c><a/></b>",
};
const char* const kQueries[] = {
    "b", "<child[b]>", "<desc[c]>", "b or c", "not a",
    "<child[<child[c]>]>", "leaf", "<(child|right)*[b]>",
};

/// Evaluates `query` on `xml` through a fresh, server-independent library
/// stack and returns the node-set bitset.
Bitset LibraryEval(const std::string& xml, const std::string& query) {
  static Alphabet* alphabet = new Alphabet;
  static PlanCache* plans = new PlanCache(64);
  static std::mutex* mu = new std::mutex;
  std::lock_guard<std::mutex> lock(*mu);
  auto tree = ParseXml(xml, alphabet);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  auto compiled = plans->ParseCompiled(query, alphabet);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  exec::ExecEngine engine(*tree);
  return engine.Eval(*compiled->program);
}

/// A service over kXmls plus a started server; the per-test fixture.
struct Loopback {
  explicit Loopback(ServerOptions options = ServerOptions{},
                    ServiceOptions service_options = ServiceOptions{}) {
    service = std::make_unique<QueryService>(service_options);
    for (const char* xml : kXmls) {
      auto id = service->AddTreeXml(xml);
      EXPECT_TRUE(id.ok()) << id.status().ToString();
    }
    server = std::make_unique<QueryServer>(service.get(), options);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  BlockingClient Connect() {
    auto client = BlockingClient::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client.ValueOrDie());
  }
  std::unique_ptr<QueryService> service;
  std::unique_ptr<QueryServer> server;
};

TEST(ServerTest, BinaryQueryMatchesLibraryBitForBit) {
  Loopback loop;
  BlockingClient client = loop.Connect();
  for (const char* query : kQueries) {
    for (int t = 0; t < 3; ++t) {
      auto resp = client.Query(query, {t});
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      ASSERT_EQ(resp->code, RespCode::kOk) << query << ": " << resp->payload;
      ASSERT_EQ(resp->results.size(), 1u);
      const Bitset expected = LibraryEval(kXmls[t], query);
      EXPECT_TRUE(resp->results[0].bits == expected)
          << query << " on tree " << t << " differs over the wire";
      EXPECT_EQ(resp->results[0].count, expected.Count());
    }
  }
}

TEST(ServerTest, WholeCorpusAndModes) {
  Loopback loop;
  BlockingClient client = loop.Connect();
  // Empty tree set = the whole corpus, in id order.
  auto all = client.Query("<child[b]>");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->results.size(), 3u);
  for (int t = 0; t < 3; ++t) {
    const Bitset expected = LibraryEval(kXmls[t], "<child[b]>");
    EXPECT_EQ(all->results[t].tree_id, t);
    EXPECT_TRUE(all->results[t].bits == expected);

    auto boolean = client.Query("<child[b]>", {t}, EvalMode::kBoolean);
    ASSERT_TRUE(boolean.ok());
    EXPECT_EQ(boolean->results[0].boolean, expected.Any());

    auto count = client.Query("<child[b]>", {t}, EvalMode::kCount);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->results[0].count, expected.Count());
    EXPECT_EQ(count->results[0].bits.size(), 0);  // no bitset on the wire
  }
}

TEST(ServerTest, CoalescedMultiTreeQueryMatchesPerTreeRequests) {
  // A multi-tree /query is served through the BatchEngine (cross-tree
  // coalescing, service.cc); a single-tree /query runs inline on the
  // calling worker's own engine. The two paths must agree bit-for-bit.
  Loopback loop;
  BlockingClient client = loop.Connect();
  for (const char* query : kQueries) {
    auto multi = client.Query(query, {0, 1, 2});
    ASSERT_TRUE(multi.ok()) << multi.status().ToString();
    ASSERT_EQ(multi->code, RespCode::kOk) << query << ": " << multi->payload;
    ASSERT_EQ(multi->results.size(), 3u);
    for (int t = 0; t < 3; ++t) {
      auto single = client.Query(query, {t});
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      ASSERT_EQ(single->code, RespCode::kOk) << query << ": "
                                             << single->payload;
      EXPECT_EQ(multi->results[static_cast<size_t>(t)].tree_id, t);
      EXPECT_TRUE(multi->results[static_cast<size_t>(t)].bits ==
                  single->results[0].bits)
          << query << " on tree " << t
          << ": coalesced path differs from inline path";
      EXPECT_EQ(multi->results[static_cast<size_t>(t)].count,
                single->results[0].count);
    }
  }
}

TEST(ServerTest, BatchMatchesPerRequestQueries) {
  // /batch (one BatchEngine::RunCompiledOnTrees call) must equal the same
  // queries issued as separate single-tree /query requests, bit-for-bit.
  Loopback loop;
  BlockingClient client = loop.Connect();
  std::vector<std::string> queries(std::begin(kQueries), std::end(kQueries));
  auto batch = client.Batch(queries, {0, 1, 2});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->code, RespCode::kOk) << batch->payload;
  ASSERT_EQ(batch->results.size(), queries.size() * 3);
  for (size_t q = 0; q < queries.size(); ++q) {
    for (int t = 0; t < 3; ++t) {
      auto single = client.Query(queries[q], {t});
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      const server::TreeResult& r =
          batch->results[q * 3 + static_cast<size_t>(t)];
      EXPECT_EQ(r.tree_id, t);
      EXPECT_TRUE(r.bits == single->results[0].bits)
          << queries[q] << " on tree " << t
          << ": batch path differs from per-request path";
    }
  }
}

TEST(ServerTest, BinaryBatchMatchesLibraryQueryMajor) {
  Loopback loop;
  BlockingClient client = loop.Connect();
  std::vector<std::string> queries(std::begin(kQueries), std::end(kQueries));
  auto resp = client.Batch(queries, {0, 2});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->code, RespCode::kOk) << resp->payload;
  ASSERT_EQ(resp->num_queries, static_cast<int>(queries.size()));
  ASSERT_EQ(resp->results.size(), queries.size() * 2);
  const int trees[] = {0, 2};
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t i = 0; i < 2; ++i) {
      const server::TreeResult& r = resp->results[q * 2 + i];
      EXPECT_EQ(r.tree_id, trees[i]);
      EXPECT_TRUE(r.bits == LibraryEval(kXmls[trees[i]], queries[q]))
          << queries[q] << " on tree " << trees[i];
    }
  }
}

TEST(ServerTest, HttpQueryAndBatch) {
  Loopback loop;
  BlockingClient client = loop.Connect();
  const Bitset expected = LibraryEval(kXmls[0], "<desc[c]>");
  auto resp = client.Http("POST", "/query?trees=0&mode=count", "<desc[c]>");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("\"count\":" + std::to_string(expected.Count())),
            std::string::npos)
      << resp->body;
  // The node list in nodeset mode is the bitset's set bits in order.
  auto nodes = client.Http("POST", "/query?trees=0", "<desc[c]>");
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(nodes->status, 200);
  std::string want = "\"nodes\":[";
  bool first = true;
  for (int i : expected.ToVector()) {
    if (!first) want += ",";
    want += std::to_string(i);
    first = false;
  }
  want += "]";
  EXPECT_NE(nodes->body.find(want), std::string::npos) << nodes->body;
  // Batch: one query per line, two queries → two result rows.
  auto batch = client.Http("POST", "/batch?trees=1&mode=count", "b\nc\n");
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->status, 200);
  EXPECT_NE(batch->body.find("\"queries\":["), std::string::npos);
}

TEST(ServerTest, MetricsAndHealthAndExplainParse) {
  Loopback loop;
  BlockingClient client = loop.Connect();
  // A query first so the counters are warm.
  ASSERT_TRUE(client.Query("a").ok());

  auto health = client.Http("GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health->body.find("\"trees\":3"), std::string::npos);

  auto metrics = client.Http("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  // Prometheus text format: TYPE lines plus the serving counters.
  EXPECT_NE(metrics->body.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics->body.find("xptc_server_requests"), std::string::npos);
  EXPECT_NE(metrics->body.find("xptc_server_admitted"), std::string::npos);

  auto explain = client.Http(
      "GET", "/explain?query=%3Cchild%5Bb%5D%3E&trees=0&json=1");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->status, 200) << explain->body;
  EXPECT_NE(explain->body.find("{"), std::string::npos);

  auto index = client.Http("GET", "/");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->status, 200);
  EXPECT_NE(index->body.find("/query"), std::string::npos);
}

TEST(ServerTest, MalformedRequestsAreRejected) {
  Loopback loop;
  {
    // Unparseable request line → 400 and the connection closes (framing
    // is lost, so the server cannot safely keep reading).
    BlockingClient client = loop.Connect();
    ASSERT_TRUE(client.SendRaw("NOT AN HTTP REQUEST\r\n\r\n").ok());
    auto resp = client.ReadHttpResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, 400);
  }
  {
    // Unknown endpoint → 404, connection stays usable.
    BlockingClient client = loop.Connect();
    auto resp = client.Http("GET", "/nosuch");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 404);
    auto again = client.Http("GET", "/healthz");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->status, 200);
  }
  {
    // Query text that fails to parse → 400 with the parser's message.
    BlockingClient client = loop.Connect();
    auto resp = client.Http("POST", "/query", "<<<not a query");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 400);
    EXPECT_NE(resp->body.find("bad_request"), std::string::npos);
  }
  {
    // Unknown tree id → 400 (kUnknownTree).
    BlockingClient client = loop.Connect();
    auto resp = client.Query("a", {17});
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->code, RespCode::kUnknownTree);
  }
  {
    // Unsupported dialect tag → clean rejection, not a parse attempt.
    BlockingClient client = loop.Connect();
    auto resp = client.Query("a", {0}, EvalMode::kNodeSet, 0, /*dialect=*/9);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, RespCode::kUnsupportedDialect);
  }
  {
    // A binary frame with a bogus type → error frame, then close.
    BlockingClient client = loop.Connect();
    std::string frame;
    frame.push_back(static_cast<char>(server::kFrameMagic));
    frame.push_back(static_cast<char>(0x7f));  // no such FrameType
    frame.append(6, '\0');
    ASSERT_TRUE(client.SendRaw(frame).ok());
    auto resp = client.ReadFrame();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->type, server::FrameType::kError);
  }
}

TEST(ServerTest, KeepAliveReuseAndPipelining) {
  Loopback loop;
  BlockingClient client = loop.Connect();
  // Many sequential requests on one connection, mixing protocols: the
  // server auto-detects per message, not per connection.
  for (int i = 0; i < 10; ++i) {
    auto ping = client.Ping();
    ASSERT_TRUE(ping.ok()) << i << ": " << ping.status().ToString();
    auto http = client.Http("GET", "/healthz");
    ASSERT_TRUE(http.ok()) << i << ": " << http.status().ToString();
    EXPECT_EQ(http->status, 200);
  }
  // Pipelining: two HTTP requests written back-to-back come back in
  // order; then two binary frames likewise (request ids distinguish them).
  ASSERT_TRUE(client
                  .SendRaw("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                           "GET / HTTP/1.1\r\nHost: t\r\n\r\n")
                  .ok());
  auto first = client.ReadHttpResponse();
  ASSERT_TRUE(first.ok());
  EXPECT_NE(first->body.find("\"status\""), std::string::npos);
  auto second = client.ReadHttpResponse();
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->body.find("/query"), std::string::npos);

  const std::string q1 = server::EncodeFrame(
      server::FrameType::kQuery,
      server::EncodeQueryPayload(101, server::kDialectXPath,
                                 EvalMode::kCount, 0, {0}, "a"));
  const std::string q2 = server::EncodeFrame(
      server::FrameType::kQuery,
      server::EncodeQueryPayload(102, server::kDialectXPath,
                                 EvalMode::kCount, 0, {1}, "a"));
  ASSERT_TRUE(client.SendRaw(q1 + q2).ok());
  auto f1 = client.ReadFrame();
  ASSERT_TRUE(f1.ok());
  auto r1 = server::DecodeResponseFrame(*f1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->request_id, 101u);
  auto f2 = client.ReadFrame();
  ASSERT_TRUE(f2.ok());
  auto r2 = server::DecodeResponseFrame(*f2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->request_id, 102u);
}

TEST(ServerTest, ConnectionCloseHeaderIsHonoured) {
  Loopback loop;
  BlockingClient client = loop.Connect();
  auto resp = client.Http("GET", "/healthz", "", /*keep_alive=*/false);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  // The server closes after the response: the next read sees EOF.
  auto eof = client.ReadFrame();
  EXPECT_FALSE(eof.ok());
}

TEST(ServerTest, GracefulDrainFlushesInFlightWork) {
  // A latch in the worker hook holds one admitted request in flight while
  // Shutdown starts; drain must finish that request and flush its
  // response before the connection closes.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  ServiceOptions service_options;
  service_options.num_workers = 1;
  QueryService service(service_options);
  for (const char* xml : kXmls) ASSERT_TRUE(service.AddTreeXml(xml).ok());
  QueryServer server(&service, ServerOptions{});
  server.SetWorkerHookForTesting([&] {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  ASSERT_TRUE(server.Start().ok());

  auto client = BlockingClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendRaw(server::EncodeFrame(
                  server::FrameType::kQuery,
                  server::EncodeQueryPayload(7, server::kDialectXPath,
                                             EvalMode::kCount, 0, {0}, "a")))
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  // The request is in flight on the (blocked) worker. Start the drain,
  // then let the worker finish.
  std::thread shutdown([&] { server.Shutdown(); });
  {
    std::unique_lock<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto resp = server::DecodeResponseFrame(*frame);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->request_id, 7u);
  EXPECT_EQ(resp->code, RespCode::kOk);
  shutdown.join();
  EXPECT_FALSE(server.running());
  // New connections are refused after drain completes.
  auto late = BlockingClient::Connect("127.0.0.1", server.port());
  if (late.ok()) {
    auto ping = late->Ping();
    EXPECT_FALSE(ping.ok());
  }
}

TEST(ServerTest, ConcurrentClientsAgreeWithLibrary) {
  ServiceOptions service_options;
  service_options.num_workers = 4;
  Loopback loop(ServerOptions{}, service_options);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 6; ++c) {
    threads.emplace_back([&, c] {
      auto client = BlockingClient::Connect("127.0.0.1", loop.server->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 25; ++i) {
        const char* query = kQueries[(c + i) % 8];
        const int t = (c * 25 + i) % 3;
        auto resp = client->Query(query, {t});
        if (!resp.ok() || resp->code != RespCode::kOk ||
            !(resp->results[0].bits == LibraryEval(kXmls[t], query))) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServerTest, ExplainReadsLabelsWhileQueriesInternFreshOnes) {
  // /explain renders a corpus tree's label names while other workers parse
  // queries naming labels the alphabet has never seen (each one grows its
  // name table); both sides must go through the plan cache's alphabet
  // lock, or TSan (server_tsan) flags the read against the reallocation.
  ServiceOptions service_options;
  service_options.num_workers = 4;
  Loopback loop(ServerOptions{}, service_options);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    BlockingClient client = loop.Connect();
    for (int i = 0; i < 20; ++i) {
      auto resp = client.Http("GET", "/explain?query=b&trees=0&json=1");
      if (!resp.ok() || resp->status != 200) ++failures;
    }
  });
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&, c] {
      BlockingClient client = loop.Connect();
      for (int i = 0; i < 40; ++i) {
        const std::string fresh =
            "fresh" + std::to_string(c) + "_" + std::to_string(i);
        auto resp = client.Query("<desc[" + fresh + "]> or b", {0});
        if (!resp.ok() || resp->code != RespCode::kOk ||
            !(resp->results[0].bits == LibraryEval(kXmls[0], "b"))) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

/// Saves and restores the process-global FlightRecorder so the tracing
/// tests below cannot leak sampling config or a completion log into their
/// neighbours (the recorder is a singleton shared by every Loopback).
struct RecorderGuard {
  RecorderGuard() : saved_n(obs::FlightRecorder::Get().sample_every_n()) {
    obs::FlightRecorder::Get().Reset();
  }
  ~RecorderGuard() {
    obs::FlightRecorder::Get().SetCompletionLog(nullptr);
    obs::FlightRecorder::Get().SetSampleEveryN(saved_n);
    obs::FlightRecorder::Get().Reset();
  }
  uint32_t saved_n;
};

std::string HeaderValue(const server::ClientHttpResponse& resp,
                        const std::string& name) {
  for (const auto& kv : resp.headers) {
    if (kv.first == name) return kv.second;
  }
  return "";
}

TEST(ServerTest, HttpXRequestIdEchoesAndResolvesAtDebugTrace) {
  RecorderGuard guard;
  obs::FlightRecorder::Get().SetSampleEveryN(1);
  Loopback loop;
  BlockingClient client = loop.Connect();

  // A client-supplied hex id is honoured verbatim and echoed back.
  auto resp = client.Http("POST", "/query?trees=0&mode=count", "<desc[c]>",
                          true, "X-Request-Id: deadbeef\r\n");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(HeaderValue(*resp, "x-request-id"), "00000000deadbeef");

  // The connection is pipelined, so by the time the server parses this
  // request the previous response has fully flushed and its trace is
  // recorded — no sleep needed.
  auto trace = client.Http("GET", "/debug/trace/deadbeef");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->status, 200);
  EXPECT_NE(trace->body.find("\"id\":\"00000000deadbeef\""),
            std::string::npos)
      << trace->body;
  EXPECT_NE(trace->body.find("\"phases\""), std::string::npos);
  EXPECT_NE(trace->body.find("<desc[c]>"), std::string::npos);

  // A request without the header gets a minted nonzero id.
  auto minted = client.Http("POST", "/query?trees=1&mode=count", "b");
  ASSERT_TRUE(minted.ok()) << minted.status().ToString();
  const std::string minted_id = HeaderValue(*minted, "x-request-id");
  ASSERT_EQ(minted_id.size(), 16u);
  EXPECT_NE(minted_id, "0000000000000000");

  // An unknown (but well-formed) id is a 404, not a parse error.
  auto missing = client.Http("GET", "/debug/trace/ffffffffffffffff");
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_EQ(missing->status, 404);
}

TEST(ServerTest, BinaryTraceFieldRoundTrips) {
  RecorderGuard guard;
  obs::FlightRecorder::Get().SetSampleEveryN(1);
  Loopback loop;
  BlockingClient client = loop.Connect();

  // Client-supplied trace id rides the flags-gated field and is echoed.
  auto resp = client.Query("b", {0}, EvalMode::kNodeSet, 0,
                           server::kDialectXPath, 0xabcdefULL);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->code, RespCode::kOk);
  EXPECT_EQ(resp->trace_id, 0xabcdefULL);
  EXPECT_TRUE(resp->results[0].bits == LibraryEval(kXmls[0], "b"));

  // Without one, the server mints a nonzero id and still echoes it.
  auto minted = client.Query("b", {0});
  ASSERT_TRUE(minted.ok()) << minted.status().ToString();
  ASSERT_EQ(minted->code, RespCode::kOk);
  EXPECT_NE(minted->trace_id, 0u);

  // Batch frames carry the field too.
  auto batch = client.Batch({"b", "<desc[c]>"}, {}, EvalMode::kNodeSet, 0,
                            server::kDialectXPath, 0x7177ULL);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->code, RespCode::kOk);
  EXPECT_EQ(batch->trace_id, 0x7177ULL);

  // The client-supplied binary id resolves at /debug/trace like the HTTP
  // header does (cross-protocol correlation).
  auto lookup = client.Http("GET", "/debug/trace/abcdef");
  ASSERT_TRUE(lookup.ok()) << lookup.status().ToString();
  EXPECT_EQ(lookup->status, 200);
  EXPECT_NE(lookup->body.find("\"proto\":\"binary\""), std::string::npos)
      << lookup->body;
}

TEST(ServerTest, DebugSlowAndJournalEndpointsServeJson) {
  RecorderGuard guard;
  obs::FlightRecorder::Get().SetSampleEveryN(1);
  Loopback loop;
  BlockingClient client = loop.Connect();

  auto warm = client.Query("<desc[c]>");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->code, RespCode::kOk);

  auto slow = client.Http("GET", "/debug/slow");
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(slow->status, 200);
  EXPECT_EQ(HeaderValue(*slow, "content-type"), "application/json");
  EXPECT_NE(slow->body.find("\"sample_every_n\":1"), std::string::npos)
      << slow->body;
  EXPECT_NE(slow->body.find("\"slow\":["), std::string::npos);
  EXPECT_NE(slow->body.find("<desc[c]>"), std::string::npos)
      << "the just-completed sampled query should be in the slow log";

  auto journal = client.Http("GET", "/debug/journal");
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal->status, 200);
  EXPECT_NE(journal->body.find("\"ring_capacity\""), std::string::npos)
      << journal->body.substr(0, 200);
  // The warm query's life cycle is in the journal: admitted, executed.
  EXPECT_NE(journal->body.find("\"admit\""), std::string::npos);
  EXPECT_NE(journal->body.find("\"exec_start\""), std::string::npos);
}

TEST(ServerTest, CompletionLogAttributesPhasesAndSpans) {
  RecorderGuard guard;
  // Sampling off: the completion log must still see every request.
  obs::FlightRecorder::Get().SetSampleEveryN(0);
  std::mutex log_mu;
  std::vector<obs::RequestTrace> logged;
  obs::FlightRecorder::Get().SetCompletionLog(
      [&](const obs::RequestTrace& trace) {
        std::lock_guard<std::mutex> lock(log_mu);
        logged.push_back(trace);
      });

  Loopback loop;
  BlockingClient client = loop.Connect();
  // Whole corpus (3 trees) so the batch pool fans out.
  auto resp = client.Query("<desc[c]>", {}, EvalMode::kNodeSet, 0,
                           server::kDialectXPath, 0x51ULL);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->code, RespCode::kOk);
  // Pipelining fence: once this inline round-trip completes, the query's
  // flush has been finalised and the completion log has fired.
  ASSERT_TRUE(client.Ping().ok());

  std::lock_guard<std::mutex> lock(log_mu);
  ASSERT_EQ(logged.size(), 1u);
  const obs::RequestTrace& trace = logged[0];
  EXPECT_EQ(trace.id, 0x51ULL);
  EXPECT_FALSE(trace.sampled);
  EXPECT_FALSE(trace.is_http);
  EXPECT_EQ(trace.op, "query");
  EXPECT_NE(trace.query.find("<desc[c]>"), std::string::npos);
  EXPECT_FALSE(trace.peer.empty());
  EXPECT_EQ(trace.code, static_cast<uint8_t>(RespCode::kOk));

  // Phase attribution: exec did real work, and the phases never claim
  // more time than the request's wall clock.
  EXPECT_GT(trace.total_ns, 0);
  EXPECT_GT(trace.phase_ns[static_cast<int>(obs::Phase::kExec)], 0);
  int64_t phase_sum = 0;
  for (int p = 0; p < obs::kNumPhases; ++p) {
    EXPECT_GE(trace.phase_ns[p], 0) << "phase " << p;
    phase_sum += trace.phase_ns[p];
  }
  EXPECT_LE(phase_sum, trace.total_ns);

  // The batch fan-out is stitched in: one span per (tree, query) cell.
  ASSERT_EQ(trace.spans.size(), 3u);
  for (const obs::WorkerSpan& span : trace.spans) {
    EXPECT_EQ(span.query_index, 0);
    EXPECT_GE(span.tree_id, 0);
    EXPECT_LT(span.tree_id, 3);
    EXPECT_GE(span.elapsed_ns, 0);
  }
}

}  // namespace
}  // namespace xptc
