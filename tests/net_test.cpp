// Tests for the event-driven serving tier (src/net/): the epoll reactor's
// wire bytes run differentially against ReptileService::Handle called in
// process on an identically built service (byte-identical bodies over the
// full dataset/session lifecycle, serial and under concurrent clients),
// hostile-client behavior (slow-loris trickle, mid-body disconnects,
// stalled readers, oversized streamed uploads), backpressure and
// admission-control counters, the 256-idle-connection fixed-thread
// guarantee, bearer-token auth, and the streaming building blocks
// (CsvStreamParser chunk-split equivalence, ToJsonPieces == ToJson).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "data/csv.h"
#include "datagen/panel_gen.h"
#include "gtest/gtest.h"
#include "net/reactor_server.h"
#include "reptile/reptile.h"
#include "server/http_client.h"
#include "server/json.h"
#include "server/service.h"

namespace reptile {
namespace {

constexpr int kDistricts = 4;
constexpr int kVillages = 3;
constexpr int kYears = 4;
constexpr int kRowsPerGroup = 3;

// MakeSeverityPanel is deterministic in its spec, so the served stack and
// the in-process reference below hold bit-identical datasets — the basis of
// every byte-equality assertion in the differential suite.
Dataset MakePanel() {
  PanelSpec spec;
  spec.districts = kDistricts;
  spec.villages_per_district = kVillages;
  spec.years = kYears;
  spec.rows_per_group = kRowsPerGroup;
  return MakeSeverityPanel(spec);
}

std::string RecommendBody(const std::string& address, int year) {
  return "{" + address +
         R"(,"complaint":{"aggregate":"std","measure":"severity",)"
         R"("where":[{"column":"year","value":"y)" +
         std::to_string(year) +
         R"("}]},"options":{"zero_timings":true}})";
}

std::string BatchBody(const std::string& address) {
  std::string body = "{" + address + R"(,"complaints":[)";
  for (int y = 0; y < kYears; ++y) {
    if (y > 0) body += ',';
    body += R"({"aggregate":"std","measure":"severity","where":[{"column":"year","value":"y)" +
            std::to_string(y) + R"("}]})";
  }
  body += R"(],"options":{"zero_timings":true}})";
  return body;
}

const char kUploadCsv[] =
    "d,y,m\n"
    "d0,y0,1\nd0,y0,2\nd0,y1,3\nd0,y1,4\n"
    "d1,y0,5\nd1,y0,3\nd1,y1,2\nd1,y1,6\n"
    "d2,y0,4\nd2,y0,2\nd2,y1,5\nd2,y1,1\n";

// One service behind the reactor front end.
struct Stack {
  explicit Stack(ServiceOptions service_options = ServiceOptions())
      : service(std::move(service_options)) {
    EXPECT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());
    ReactorServerOptions options;
    options.num_threads = 2;
    options.tick_interval_ms = 50;
    options.stream_factory = [this](const HttpRequest& head) {
      return service.StartStreamingBody(head);
    };
    server = std::make_unique<ReactorServer>(
        std::move(options),
        [this](const HttpRequest& request) { return service.Handle(request); });
    EXPECT_TRUE(server->Start().ok());
    port = server->port();
  }

  ReptileService service;
  std::unique_ptr<ReactorServer> server;
  int port = 0;
};

// A blocking loopback socket with explicit timeouts — for clients that must
// misbehave in ways HttpClient cannot (trickled bytes, half-finished bodies,
// refusing to read).
class RawSocket {
 public:
  explicit RawSocket(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~RawSocket() { Close(); }
  RawSocket(RawSocket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  RawSocket& operator=(RawSocket&&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads until EOF or until `deadline_ms` passes with no data.
  std::string ReadUntilClosed(int deadline_ms) {
    std::string out;
    for (;;) {
      pollfd pfd{fd_, POLLIN, 0};
      int ready = ::poll(&pfd, 1, deadline_ms);
      if (ready <= 0) return out;  // timed out (or error): give back what we have
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return out;  // EOF
      out.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True when the peer has closed (EOF observed within `deadline_ms`).
  bool WaitForEof(int deadline_ms) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
    for (;;) {
      int remaining = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count());
      if (remaining <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, remaining) <= 0) return false;
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) return true;
      if (n < 0) return false;
      // Data (e.g. an error response) before the close: keep draining.
    }
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

// ---- Differential suite ----------------------------------------------------

struct WireCall {
  std::string label;
  std::string method;  // "GET", "POST", "DELETE"
  std::string path;
  std::string body;
  std::string content_type = "application/json";
};

// /healthz carries fields that are volatile across two independently
// constructed service instances — uptime_seconds can straddle a second
// boundary and the per-service "metrics" object accumulates real latencies —
// so scrub exactly those two before byte-comparing; every other healthz byte
// stays pinned.
std::string NormalizeHealthz(const std::string& body) {
  std::string out = body;
  constexpr std::string_view kUptime = "\"uptime_seconds\":";
  size_t pos = out.find(kUptime);
  if (pos != std::string::npos) {
    size_t begin = pos + kUptime.size();
    size_t end = begin;
    while (end < out.size() && out[end] >= '0' && out[end] <= '9') ++end;
    out.replace(begin, end - begin, "0");
  }
  constexpr std::string_view kMetrics = "\"metrics\":";
  pos = out.find(kMetrics);
  if (pos != std::string::npos && pos + kMetrics.size() < out.size() &&
      out[pos + kMetrics.size()] == '{') {
    // String-aware brace matching: histogram help text could hold braces.
    size_t begin = pos + kMetrics.size();
    size_t end = begin;
    int depth = 0;
    bool in_string = false, escaped = false;
    for (; end < out.size(); ++end) {
      char c = out[end];
      if (in_string) {
        if (escaped) escaped = false;
        else if (c == '\\') escaped = true;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (--depth == 0) { ++end; break; }
      }
    }
    out.replace(begin, end - begin, "{}");
  }
  return out;
}

HttpRequest MakeRequest(const std::string& method, const std::string& target,
                        std::string body = std::string(),
                        std::vector<std::pair<std::string, std::string>> headers = {}) {
  HttpRequest request;
  request.method = method;
  request.target = target;
  size_t question = target.find('?');
  request.path = target.substr(0, question);
  if (question != std::string::npos) request.query = target.substr(question + 1);
  request.http_version = "HTTP/1.1";
  request.headers = std::move(headers);
  request.body = std::move(body);
  return request;
}

// The byte-identity reference: an identically built service called in
// process, with no transport at all. A text/csv body goes through the
// streaming hook the way the front end feeds it (StartStreamingBody, the
// body, then Finish), and a streamed response body is concatenated.
struct InProcess {
  explicit InProcess(ServiceOptions service_options = ServiceOptions())
      : service(std::move(service_options)) {
    EXPECT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());
  }

  HttpResponse Call(const WireCall& call) {
    std::vector<std::pair<std::string, std::string>> headers;
    if (call.method == "POST") headers.emplace_back("content-type", call.content_type);
    HttpRequest request = MakeRequest(call.method, call.path, std::string(), headers);
    HttpResponse response;
    if (std::unique_ptr<HttpBodySink> sink = service.StartStreamingBody(request)) {
      bool accepted = call.body.empty() || sink->Append(call.body);
      response = sink->Finish(/*complete=*/accepted);
    } else {
      request.body = call.body;
      response = service.Handle(request);
    }
    if (response.body_stream) {
      std::string piece;
      while (response.body_stream(&piece)) response.body += piece;
    }
    return response;
  }

  ReptileService service;
};

void RunDifferentialSequence(const std::vector<WireCall>& calls, InProcess& reference,
                             Stack& served) {
  HttpClient client("127.0.0.1", served.port);
  for (const WireCall& call : calls) {
    Result<HttpClientResponse> wire =
        call.method == "GET"      ? client.Get(call.path)
        : call.method == "DELETE" ? client.Delete(call.path)
                                  : client.Post(call.path, call.body, call.content_type);
    HttpResponse expected = reference.Call(call);
    ASSERT_TRUE(wire.ok()) << call.label << ": " << wire.status().ToString();
    EXPECT_EQ(wire->status, expected.status) << call.label;
    if (call.path == "/healthz" && call.method == "GET") {
      EXPECT_EQ(NormalizeHealthz(wire->body), NormalizeHealthz(expected.body)) << call.label;
    } else {
      EXPECT_EQ(wire->body, expected.body) << call.label;
    }
  }
}

TEST(NetDifferentialTest, FullLifecycleWireBytesMatchInProcessHandle) {
  InProcess reference;
  Stack served;

  const std::string session_address = R"("session":"s-1")";
  std::vector<WireCall> calls = {
      {"healthz", "GET", "/healthz", ""},
      {"dataset list", "GET", "/v1/datasets", ""},
      {"inline upload", "POST", "/v1/datasets",
       std::string(R"({"name":"up","csv":")") +
           "d,y,m\\nd0,y0,1\\nd0,y0,2\\nd0,y1,3\\nd1,y0,4\\nd1,y1,5\\nd1,y1,6\\n" +
           R"(","dimensions":["d","y"],"measures":["m"],)" +
           R"("hierarchies":[{"name":"geo","attributes":["d"]},)" +
           R"({"name":"time","attributes":["y"]}],"commits":["time"]})"},
      {"streamed csv upload", "POST",
       "/v1/datasets?name=sup&dimensions=d,y&measures=m"
       "&hierarchy=geo:d&hierarchy=time:y&commits=time",
       kUploadCsv, "text/csv"},
      {"dataset list after uploads", "GET", "/v1/datasets", ""},
      {"session create", "POST", "/v1/sessions",
       R"({"dataset":"up","committed":{"time":1}})"},
      {"session list", "GET", "/v1/sessions", ""},
      {"recommend via session", "POST", "/v1/recommend",
       "{" + session_address +
           R"(,"complaint":{"aggregate":"mean","measure":"m",)" +
           R"("where":[{"column":"y","value":"y0"}]},"options":{"zero_timings":true}})"},
      {"recommend via default", "POST", "/v1/recommend", RecommendBody(R"("dataset":"panel")", 2)},
      {"recommend_batch", "POST", "/v1/recommend_batch", BatchBody(R"("dataset":"panel")")},
      {"view", "POST", "/v1/view",
       R"({"dataset":"panel","group_by":["year"],"measure":"severity"})"},
      {"commit via session", "POST", "/v1/commit",
       "{" + session_address + R"(,"hierarchy":"geo"})"},
      {"session snapshot", "GET", "/v1/sessions/s-1", ""},
      {"session delete", "DELETE", "/v1/sessions/s-1", ""},
      {"deleted session is 404", "GET", "/v1/sessions/s-1", ""},
      {"streamed dataset recommend", "POST", "/v1/recommend",
       R"({"dataset":"sup","complaint":{"aggregate":"mean","measure":"m",)"
       R"("where":[{"column":"y","value":"y1"}]},"options":{"zero_timings":true}})"},
      {"dataset delete", "DELETE", "/v1/datasets/up", ""},
      {"dataset delete again is 404", "DELETE", "/v1/datasets/up", ""},
      {"bad json", "POST", "/v1/recommend", "{nope"},
      {"unknown route", "GET", "/v1/nothing-here", ""},
      {"wrong method", "POST", "/healthz", "{}"},
      {"bad streamed upload metadata", "POST",
       "/v1/datasets?name=bad&dimensions=d,y&hierarchy=broken", kUploadCsv, "text/csv"},
      {"streamed upload parse error", "POST",
       "/v1/datasets?name=bad2&dimensions=d,y&measures=m", "d,y,m\nd0,y0,not-a-number\n",
       "text/csv"},
      {"healthz after lifecycle", "GET", "/healthz", ""},
  };
  RunDifferentialSequence(calls, reference, served);
}

// /metricsz over the wire: structural assertions only (latency values are
// scheduling-dependent, so no byte comparison) — Prometheus content type,
// the request-latency histogram with cumulative buckets, the stage and
// cache series, and a trace id echoed on the scrape response itself.
TEST(NetDifferentialTest, MetricszServesHistogramsAndTransportGauges) {
  {
    Stack stack;
    HttpClient client("127.0.0.1", stack.port);
    // Drive one recommend through first so the stage histograms are fed.
    Result<HttpClientResponse> rec =
        client.Post("/v1/recommend", RecommendBody(R"("dataset":"panel")", 0));
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_EQ(rec->status, 200);

    Result<HttpClientResponse> metrics = client.Get("/metricsz");
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    EXPECT_EQ(metrics->status, 200);
    ASSERT_NE(metrics->FindHeader("content-type"), nullptr);
    EXPECT_NE(metrics->FindHeader("content-type")->find("version=0.0.4"),
              std::string::npos);
    const std::string& body = metrics->body;
    for (const char* needle :
         {"# TYPE reptile_http_request_duration_seconds histogram",
          "reptile_http_request_duration_seconds_bucket{le=\"+Inf\"}",
          "reptile_http_request_duration_seconds_count",
          "reptile_http_requests_total{code=\"2xx\"}",
          "reptile_request_stage_duration_seconds_bucket{stage=\"fit\",le=\"+Inf\"}",
          "reptile_aggregate_cache_hits", "reptile_model_cache_fits",
          "reptile_sessions", "reptile_datasets",
          "reptile_shared_pool_queue_depth"}) {
      EXPECT_NE(body.find(needle), std::string::npos)
          << "missing " << needle << " in:\n" << body.substr(0, 2000);
    }
    ASSERT_NE(metrics->FindHeader("x-request-id"), nullptr);
    EXPECT_FALSE(metrics->FindHeader("x-request-id")->empty());
  }
  // With the transport hook wired (as serve_main does), the front end's
  // counters are re-exported as reptile_transport_* gauges.
  auto transport = std::make_shared<std::function<std::string()>>();
  ServiceOptions with_transport;
  with_transport.transport_stats_json = [transport] {
    return *transport ? (*transport)() : std::string("null");
  };
  Stack wired(std::move(with_transport));
  *transport = [&wired] { return wired.server->StatsJson(); };
  HttpClient client2("127.0.0.1", wired.port);
  ASSERT_TRUE(client2.Get("/healthz").ok());
  Result<HttpClientResponse> metrics2 = client2.Get("/metricsz");
  ASSERT_TRUE(metrics2.ok()) << metrics2.status().ToString();
  EXPECT_NE(metrics2->body.find("reptile_transport_requests_dispatched"),
            std::string::npos)
      << metrics2->body.substr(0, 2000);
}

TEST(NetDifferentialTest, ConcurrentClientsSeeByteIdenticalBodies) {
  Stack reactor;

  // Reference bytes, computed serially in process first.
  std::vector<std::string> expected;
  {
    InProcess reference;
    for (int y = 0; y < kYears; ++y) {
      HttpResponse r = reference.Call(
          {"recommend", "POST", "/v1/recommend", RecommendBody(R"("dataset":"panel")", y)});
      ASSERT_EQ(r.status, 200);
      expected.push_back(r.body);
    }
  }

  constexpr int kClients = 4;
  constexpr int kIterations = 6;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient via_reactor("127.0.0.1", reactor.port);
      for (int i = 0; i < kIterations; ++i) {
        int year = (c + i) % kYears;
        std::string body = RecommendBody(R"("dataset":"panel")", year);
        Result<HttpClientResponse> rr = via_reactor.Post("/v1/recommend", body);
        if (!rr.ok() || rr->status != 200) {
          failures.fetch_add(1);
          continue;
        }
        if (rr->body != expected[year]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(reactor.server->requests_dispatched(), kClients * kIterations);
}

TEST(NetDifferentialTest, PipelinedRequestsAnsweredInOrder) {
  Stack stack;
  const std::string two_gets =
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  HttpClient client("127.0.0.1", stack.port);
  Result<std::string> raw = client.SendRaw(two_gets);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  // Two complete 200 responses, back to back.
  size_t first = raw->find("HTTP/1.1 200 OK");
  ASSERT_NE(first, std::string::npos);
  size_t second = raw->find("HTTP/1.1 200 OK", first + 1);
  ASSERT_NE(second, std::string::npos);
}

TEST(NetDifferentialTest, StreamedBatchBodyMatchesBufferedBytes) {
  ServiceOptions streaming;
  streaming.stream_threshold_bytes = 1;  // stream every batch response
  Stack buffered_stack;
  Stack streamed_stack(streaming);
  const WireCall batch = {"batch", "POST", "/v1/recommend_batch",
                          BatchBody(R"("dataset":"panel")")};
  HttpResponse reference = InProcess().Call(batch);
  ASSERT_EQ(reference.status, 200);

  HttpClient buffered_client("127.0.0.1", buffered_stack.port);
  Result<HttpClientResponse> buffered = buffered_client.Post(batch.path, batch.body);
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  ASSERT_EQ(buffered->status, 200);
  EXPECT_EQ(buffered->FindHeader("transfer-encoding"), nullptr);
  EXPECT_EQ(buffered->body, reference.body);

  HttpClient client("127.0.0.1", streamed_stack.port);
  Result<HttpClientResponse> streamed = client.Post(batch.path, batch.body);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->status, 200);
  const std::string* te = streamed->FindHeader("transfer-encoding");
  ASSERT_NE(te, nullptr);
  EXPECT_EQ(*te, "chunked");
  EXPECT_EQ(streamed->body, reference.body);  // decoded bytes identical
}

TEST(NetDifferentialTest, Http10ClientGetsIdentityBodyFromStreamingServer) {
  ServiceOptions streaming;
  streaming.stream_threshold_bytes = 1;
  Stack stack(streaming);

  std::string body = BatchBody(R"("dataset":"panel")");
  std::string request = "POST /v1/recommend_batch HTTP/1.0\r\nHost: x\r\n"
                        "Content-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  HttpClient client("127.0.0.1", stack.port);
  Result<std::string> raw = client.SendRaw(request);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_NE(raw->find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(raw->find("Transfer-Encoding"), std::string::npos);
  EXPECT_NE(raw->find("Content-Length:"), std::string::npos);
  EXPECT_NE(raw->find("\"responses\":["), std::string::npos);
}

// ---- Auth ------------------------------------------------------------------

TEST(NetAuthTest, BearerTokenGatesMutatingRoutesOnly) {
  ServiceOptions options;
  options.auth_token = "tok-123";
  ReptileService service(options);
  ASSERT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());

  const std::string commit = R"({"dataset":"panel","hierarchy":"geo"})";

  // Mutating routes without (or with a wrong) token: 401, standard envelope,
  // WWW-Authenticate challenge.
  for (const auto& [method, target] :
       std::vector<std::pair<std::string, std::string>>{
           {"POST", "/v1/datasets"},
           {"DELETE", "/v1/datasets/panel"},
           {"POST", "/v1/datasets/panel/snapshot"},
           {"POST", "/v1/sessions"},
           {"DELETE", "/v1/sessions/s-1"},
           {"POST", "/v1/commit"}}) {
    HttpResponse denied = service.Handle(MakeRequest(method, target, "{}"));
    EXPECT_EQ(denied.status, 401) << method << " " << target;
    EXPECT_NE(denied.body.find("\"code\":\"UNAUTHENTICATED\""), std::string::npos);
    EXPECT_NE(denied.body.find("\"http\":401"), std::string::npos);
    bool has_challenge = false;
    for (const auto& [name, value] : denied.extra_headers) {
      if (name == "WWW-Authenticate") has_challenge = true;
    }
    EXPECT_TRUE(has_challenge);
  }
  HttpResponse wrong = service.Handle(MakeRequest(
      "POST", "/v1/commit", commit, {{"authorization", "Bearer wrong"}}));
  EXPECT_EQ(wrong.status, 401);
  HttpResponse scheme_only = service.Handle(MakeRequest(
      "POST", "/v1/commit", commit, {{"authorization", "tok-123"}}));
  EXPECT_EQ(scheme_only.status, 401);

  // Reads and /healthz stay open (checked before any commit narrows the
  // default session's drill-down frontier).
  EXPECT_EQ(service.Handle(MakeRequest("GET", "/healthz")).status, 200);
  EXPECT_EQ(service.Handle(MakeRequest("GET", "/v1/datasets")).status, 200);
  EXPECT_EQ(service.Handle(MakeRequest("GET", "/v1/sessions")).status, 200);
  EXPECT_EQ(service
                .Handle(MakeRequest("POST", "/v1/recommend",
                                    RecommendBody(R"("dataset":"panel")", 0)))
                .status,
            200);

  // The right token unlocks the route (case-insensitive scheme).
  EXPECT_EQ(service
                .Handle(MakeRequest("POST", "/v1/commit", commit,
                                    {{"authorization", "Bearer tok-123"}}))
                .status,
            200);
  EXPECT_EQ(service
                .Handle(MakeRequest("POST", "/v1/commit", commit,
                                    {{"authorization", "bearer tok-123"}}))
                .status,
            200);

  // Streamed uploads are gated too: the sink rejects the body outright.
  HttpRequest upload = MakeRequest(
      "POST", "/v1/datasets?name=x&dimensions=d", std::string(),
      {{"content-type", "text/csv"}});
  std::unique_ptr<HttpBodySink> sink = service.StartStreamingBody(upload);
  ASSERT_NE(sink, nullptr);
  EXPECT_FALSE(sink->Append("d\n"));
  EXPECT_EQ(sink->Finish(false).status, 401);
}

TEST(NetAuthTest, TokenlessServiceAcceptsEverything) {
  ReptileService service;  // no auth_token
  ASSERT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());
  EXPECT_EQ(service
                .Handle(MakeRequest("POST", "/v1/commit",
                                    R"({"dataset":"panel","hierarchy":"geo"})"))
                .status,
            200);
}

TEST(NetAuthTest, AuthEnforcedOnTheWire) {
  ServiceOptions options;
  options.auth_token = "wire-tok";
  Stack stack(options);
  HttpClient client("127.0.0.1", stack.port);
  Result<HttpClientResponse> denied =
      client.Post("/v1/commit", R"({"dataset":"panel","hierarchy":"geo"})");
  ASSERT_TRUE(denied.ok()) << denied.status().ToString();
  EXPECT_EQ(denied->status, 401);
  client.SetHeader("Authorization", "Bearer wire-tok");
  Result<HttpClientResponse> allowed =
      client.Post("/v1/commit", R"({"dataset":"panel","hierarchy":"geo"})");
  ASSERT_TRUE(allowed.ok()) << allowed.status().ToString();
  EXPECT_EQ(allowed->status, 200);
  // Streamed upload without the token: 401 through the rejecting sink.
  client.SetHeader("Authorization", "");
  Result<HttpClientResponse> upload = client.Post(
      "/v1/datasets?name=n&dimensions=d,y&measures=m", kUploadCsv, "text/csv");
  ASSERT_TRUE(upload.ok()) << upload.status().ToString();
  EXPECT_EQ(upload->status, 401);
}

// ---- Hostile clients -------------------------------------------------------

TEST(NetHostileTest, SlowLorisHeaderTrickleGets408) {
  ReactorServerOptions options;
  options.num_threads = 1;
  options.idle_timeout_seconds = 1;
  options.tick_interval_ms = 25;
  ReactorServer server(std::move(options),
                       [](const HttpRequest&) { return HttpResponse::Json(200, "{}"); });
  ASSERT_TRUE(server.Start().ok());

  RawSocket socket(server.port());
  ASSERT_TRUE(socket.ok());
  // A few header bytes, then silence: the request never completes, but the
  // connection is not idle-empty either — the slow-loris pattern.
  ASSERT_TRUE(socket.Send("GET /healthz HTT"));
  std::string response = socket.ReadUntilClosed(5000);
  EXPECT_NE(response.find("HTTP/1.1 408 Request Timeout"), std::string::npos) << response;
  server.Stop();
}

TEST(NetHostileTest, ByteFreeIdleConnectionIsClosedSilently) {
  ReactorServerOptions options;
  options.num_threads = 1;
  options.idle_timeout_seconds = 1;
  options.tick_interval_ms = 25;
  ReactorServer server(std::move(options),
                       [](const HttpRequest&) { return HttpResponse::Json(200, "{}"); });
  ASSERT_TRUE(server.Start().ok());

  RawSocket socket(server.port());
  ASSERT_TRUE(socket.ok());
  std::string bytes = socket.ReadUntilClosed(5000);
  EXPECT_TRUE(bytes.empty()) << bytes;  // no 408 for a connection that sent nothing
  server.Stop();
}

TEST(NetHostileTest, MidBodyDisconnectLeavesServerHealthy) {
  Stack stack;
  {
    RawSocket buffered(stack.port);
    ASSERT_TRUE(buffered.ok());
    ASSERT_TRUE(buffered.Send("POST /v1/recommend HTTP/1.1\r\nHost: x\r\n"
                              "Content-Length: 100000\r\n\r\n{\"partial"));
    buffered.Close();  // vanish mid-body
  }
  {
    RawSocket streamed(stack.port);
    ASSERT_TRUE(streamed.ok());
    ASSERT_TRUE(streamed.Send(
        "POST /v1/datasets?name=gone&dimensions=d HTTP/1.1\r\nHost: x\r\n"
        "Content-Type: text/csv\r\nContent-Length: 100000\r\n\r\nd\nrow1\n"));
    streamed.Close();  // sink must be destroyed without Finish
  }
  // The server keeps serving, and the half-uploaded dataset never appeared.
  HttpClient client("127.0.0.1", stack.port);
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (stack.server->open_connections() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Result<HttpClientResponse> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  Result<HttpClientResponse> sessions = client.Get("/v1/sessions");
  ASSERT_TRUE(sessions.ok());
  EXPECT_EQ(sessions->body.find("gone"), std::string::npos);
}

TEST(NetHostileTest, StalledReaderOnStreamedResponseIsDisconnected) {
  // A handler that streams 16 MiB in 16 KiB pieces — far beyond socket
  // buffering — to a client that never reads: the write queue must cap at
  // the high-water mark (backpressure) and the stall timer must kill the
  // connection instead of letting bytes pile up forever.
  ReactorServerOptions options;
  options.num_threads = 1;
  options.tick_interval_ms = 25;
  options.write_high_water_bytes = 64 * 1024;
  options.write_stall_seconds = 0.5;
  ReactorServer server(std::move(options), [](const HttpRequest&) {
    HttpResponse response;
    auto remaining = std::make_shared<int>(1024);
    response.body_stream = [remaining](std::string* piece) {
      if (*remaining == 0) return false;
      --*remaining;
      piece->assign(16 * 1024, 'x');
      return true;
    };
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  RawSocket socket(server.port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket.Send("GET /big HTTP/1.1\r\nHost: x\r\n\r\n"));
  // Do not read. The server must give up within the stall window.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.slow_client_disconnects() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.slow_client_disconnects(), 1);
  EXPECT_GE(server.backpressure_trips(), 1);
  // The bounded queue never held more than high-water + one piece.
  EXPECT_LE(server.queued_bytes(), static_cast<int64_t>(80 * 1024));
  server.Stop();
}

TEST(NetHostileTest, OversizedStreamedUploadRejectedWithoutBuffering) {
  std::atomic<int64_t> bytes_fed{0};
  class CountingSink : public HttpBodySink {
   public:
    explicit CountingSink(std::atomic<int64_t>* fed) : fed_(fed) {}
    bool Append(std::string_view chunk) override {
      fed_->fetch_add(static_cast<int64_t>(chunk.size()));
      return true;
    }
    HttpResponse Finish(bool) override { return HttpResponse::Json(200, "{}"); }

   private:
    std::atomic<int64_t>* fed_;
  };

  ReactorServerOptions options;
  options.num_threads = 1;
  options.tick_interval_ms = 25;
  options.max_stream_body_bytes = 1024;
  options.stream_factory = [&bytes_fed](const HttpRequest&) {
    return std::make_unique<CountingSink>(&bytes_fed);
  };
  ReactorServer server(std::move(options),
                       [](const HttpRequest&) { return HttpResponse::Json(200, "{}"); });
  ASSERT_TRUE(server.Start().ok());

  RawSocket socket(server.port());
  ASSERT_TRUE(socket.ok());
  // Declare a 10 MB body but send none of it: the declared length alone must
  // trigger the 413 — no buffering, no draining of megabytes.
  ASSERT_TRUE(socket.Send("POST /upload HTTP/1.1\r\nHost: x\r\n"
                          "Content-Length: 10000000\r\n\r\n"));
  std::string response = socket.ReadUntilClosed(5000);
  EXPECT_NE(response.find("HTTP/1.1 413"), std::string::npos) << response;
  EXPECT_EQ(bytes_fed.load(), 0);  // the sink never saw a byte
  server.Stop();
}

// ---- Capacity --------------------------------------------------------------

TEST(NetCapacityTest, Holds256IdleKeepAliveConnectionsWithFixedThreads) {
  Stack stack;  // 1 loop thread + 2 workers, regardless of load

  int threads_before = ProcessThreadCount();
  ASSERT_GT(threads_before, 0);

  constexpr int kConnections = 256;
  std::vector<RawSocket> sockets;
  sockets.reserve(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    sockets.emplace_back(stack.port);
    ASSERT_TRUE(sockets.back().ok()) << "connection " << i;
    if (i % 32 == 0) {
      // Prove a sampling of them actually speak HTTP and stay open after.
      ASSERT_TRUE(sockets.back().Send("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
      std::string response;
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (response.find("\"status\":\"ok\"") == std::string::npos &&
             std::chrono::steady_clock::now() < deadline) {
        response += sockets.back().ReadUntilClosed(100);
      }
      ASSERT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    }
  }
  // All 256 are open server-side...
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (stack.server->open_connections() < kConnections &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(stack.server->open_connections(), kConnections);
  // ...and the thread count did not move: idle connections are state, not
  // threads.
  EXPECT_EQ(ProcessThreadCount(), threads_before);

  // One of them still works with 255 idle siblings.
  HttpClient client("127.0.0.1", stack.port);
  Result<HttpClientResponse> response = client.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
}

TEST(NetCapacityTest, ConnectionsPastTheCapGet503) {
  ReactorServerOptions options;
  options.num_threads = 1;
  options.tick_interval_ms = 25;
  options.max_connections = 4;
  ReactorServer server(std::move(options),
                       [](const HttpRequest&) { return HttpResponse::Json(200, "{}"); });
  ASSERT_TRUE(server.Start().ok());

  std::vector<RawSocket> held;
  for (int i = 0; i < 4; ++i) {
    held.emplace_back(server.port());
    ASSERT_TRUE(held.back().ok());
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.open_connections() < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.open_connections(), 4);

  RawSocket extra(server.port());
  ASSERT_TRUE(extra.ok());
  std::string response = extra.ReadUntilClosed(5000);
  EXPECT_NE(response.find("HTTP/1.1 503"), std::string::npos) << response;
  EXPECT_TRUE(extra.WaitForEof(2000));
  EXPECT_GE(server.overload_rejections(), 1);
  server.Stop();
}

TEST(NetCapacityTest, StopFlushesInFlightResponses) {
  Stack stack;
  HttpClient client("127.0.0.1", stack.port);
  Result<HttpClientResponse> warm = client.Get("/healthz");
  ASSERT_TRUE(warm.ok());
  stack.server->Stop();
  // After Stop() the port no longer accepts (or resets immediately).
  Result<HttpClientResponse> after = HttpClient("127.0.0.1", stack.port).Get("/healthz");
  EXPECT_FALSE(after.ok());
}

// ---- Streaming building blocks --------------------------------------------

std::string TableToString(const Table& table) {
  std::string out;
  for (int c = 0; c < table.num_columns(); ++c) {
    out += table.column_name(c);
    out += table.is_dimension(c) ? "[dim]" : "[measure]";
    out += ';';
  }
  out += '\n';
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (int c = 0; c < table.num_columns(); ++c) {
      if (table.is_dimension(c)) {
        out += table.dict(c).name(table.dim_codes(c)[row]);
      } else {
        out += std::to_string(table.measure(c)[row]);
      }
      out += ';';
    }
    out += '\n';
  }
  return out;
}

TEST(CsvStreamTest, AnyChunkSplitParsesIdentically) {
  CsvSpec spec;
  spec.dimension_columns = {"d", "y"};
  spec.measure_columns = {"m"};
  const std::string text(kUploadCsv);

  Result<Table> whole = LoadCsvText(text, spec);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  const std::string expected = TableToString(*whole);

  for (size_t chunk_size : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{64}}) {
    CsvStreamParser parser(spec, "inline csv");
    for (size_t pos = 0; pos < text.size(); pos += chunk_size) {
      ASSERT_TRUE(parser.Feed(std::string_view(text).substr(pos, chunk_size)));
    }
    Result<Table> table = parser.Finish();
    ASSERT_TRUE(table.ok()) << "chunk=" << chunk_size << ": " << table.status().ToString();
    EXPECT_EQ(TableToString(*table), expected) << "chunk=" << chunk_size;
  }
}

TEST(CsvStreamTest, ErrorsAreIdenticalAcrossSplitsAndSticky) {
  CsvSpec spec;
  spec.dimension_columns = {"d"};
  spec.measure_columns = {"m"};
  const std::string bad = "d,m\nd0,1\nd1,oops\nd2,3\n";

  Result<Table> whole = LoadCsvText(bad, spec);
  ASSERT_FALSE(whole.ok());

  CsvStreamParser parser(spec, "inline csv");
  bool fed_ok = true;
  for (char c : bad) {
    if (!parser.Feed(std::string_view(&c, 1))) {
      fed_ok = false;
      break;
    }
  }
  EXPECT_FALSE(fed_ok);  // the parse failed mid-stream and stayed failed
  EXPECT_FALSE(parser.Feed("more\n"));
  Result<Table> streamed = parser.Finish();
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().ToString(), whole.status().ToString());
  EXPECT_NE(streamed.status().message().find("row 2"), std::string::npos);
}

// strtod accepts these; a measure must be finite, so each is the parser's
// row- and column-naming ParseError however the bytes arrive.
TEST(CsvStreamTest, NonFiniteMeasuresAreParseErrorsAcrossSplits) {
  CsvSpec spec;
  spec.dimension_columns = {"d"};
  spec.measure_columns = {"m"};
  for (const char* literal : {"nan", "NaN", "inf", "-inf", "infinity", "1e999", "-1e999"}) {
    const std::string text = std::string("d,m\nd0,1\nd1,") + literal + "\nd2,3\n";
    Result<Table> whole = LoadCsvText(text, spec);
    ASSERT_FALSE(whole.ok()) << literal;
    EXPECT_EQ(whole.status().code(), StatusCode::kParseError) << literal;
    EXPECT_NE(whole.status().message().find("row 2, column 'm'"), std::string::npos)
        << whole.status().ToString();
    for (size_t chunk_size : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{64}}) {
      CsvStreamParser parser(spec, "inline csv");
      for (size_t pos = 0; pos < text.size(); pos += chunk_size) {
        if (!parser.Feed(std::string_view(text).substr(pos, chunk_size))) break;
      }
      Result<Table> streamed = parser.Finish();
      ASSERT_FALSE(streamed.ok()) << literal << " chunk=" << chunk_size;
      EXPECT_EQ(streamed.status().ToString(), whole.status().ToString())
          << literal << " chunk=" << chunk_size;
    }
  }
  // Large finite values still parse.
  EXPECT_TRUE(LoadCsvText("d,m\nd0,1e308\nd1,-1e308\n", spec).ok());
}

TEST(CsvStreamTest, FinishFlushesUnterminatedTrailingLine) {
  CsvSpec spec;
  spec.dimension_columns = {"d"};
  spec.measure_columns = {"m"};
  CsvStreamParser parser(spec, "inline csv");
  ASSERT_TRUE(parser.Feed("d,m\nd0,1\nd1,2"));  // no trailing newline
  Result<Table> table = parser.Finish();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(parser.rows_parsed(), 2u);
}

TEST(CsvStreamTest, EmptyInputReportsMissingHeader) {
  CsvSpec spec;
  CsvStreamParser parser(spec, "uploaded csv");
  Result<Table> table = parser.Finish();
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("is empty (expected a header row)"),
            std::string::npos);
}

TEST(CsvStreamTest, EdgeFramingIdenticalAcrossBufferedAndChunkedFeeds) {
  CsvSpec spec;
  spec.dimension_columns = {"d"};
  spec.measure_columns = {"m"};
  // Every framing edge at once: a UTF-8 BOM before the header, CRLF and LF
  // line endings mixed in one file, and a final row with no trailing newline.
  const std::string text = "\xEF\xBB\xBF" "d,m\r\nd0,1\nd1,2\r\nd2,3";

  Result<Table> whole = LoadCsvText(text, spec);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_EQ(whole->num_rows(), 3u);
  // The BOM did not glue onto the first header name.
  EXPECT_EQ(whole->column_name(0), "d");
  EXPECT_EQ(whole->dict(0).name(whole->dim_codes(0)[0]), "d0");
  const std::string expected = TableToString(*whole);

  // Chunk-split anywhere — including inside the BOM and inside "\r\n".
  for (size_t chunk_size = 1; chunk_size <= text.size(); ++chunk_size) {
    CsvStreamParser parser(spec, "inline csv");
    for (size_t pos = 0; pos < text.size(); pos += chunk_size) {
      ASSERT_TRUE(parser.Feed(std::string_view(text).substr(pos, chunk_size)));
    }
    Result<Table> table = parser.Finish();
    ASSERT_TRUE(table.ok()) << "chunk=" << chunk_size << ": " << table.status().ToString();
    EXPECT_EQ(TableToString(*table), expected) << "chunk=" << chunk_size;
  }
}

// ---- Snapshot routes (differential) ----------------------------------------

// POST /v1/datasets/{name}/snapshot then create-from-snapshot over the wire:
// the restored dataset answers byte-identically to the original and —
// because the snapshot carries the fitted-model cache — without a single
// new fit.
TEST(NetDifferentialTest, SnapshotRestartByteIdenticalAndWarm) {
  auto model_fits = [](HttpClient& client) {
    Result<HttpClientResponse> health = client.Get("/healthz");
    EXPECT_TRUE(health.ok());
    Result<JsonValue> parsed = ParseJson(health->body);
    EXPECT_TRUE(parsed.ok());
    return parsed->Find("model_cache")->Find("fits")->IntValue();
  };

  ServiceOptions service_options;
  service_options.dataset_path_root = ::testing::TempDir();
  Stack stack(service_options);
  HttpClient client("127.0.0.1", stack.port);
  const std::string batch_body = BatchBody(R"("dataset":"panel")");
  const std::string snap_name = "restart.snap";

  // Warm the panel (aggregates + fits), then snapshot it.
  Result<HttpClientResponse> warm = client.Post("/v1/recommend_batch", batch_body);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->status, 200);
  Result<HttpClientResponse> saved = client.Post(
      "/v1/datasets/panel/snapshot", R"({"path":")" + snap_name + R"("})");
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_EQ(saved->status, 201) << saved->body;
  EXPECT_NE(saved->body.find("\"dataset\":\"panel\""), std::string::npos) << saved->body;
  EXPECT_NE(saved->body.find("\"path\":\"" + snap_name + "\""), std::string::npos);

  // Restore under a new name, with the default session committed to the
  // same drill state as the panel's.
  Result<HttpClientResponse> restored = client.Post(
      "/v1/datasets", R"({"name":"restored","snapshot":")" + snap_name +
                          R"(","commits":["time"]})");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->status, 201) << restored->body;
  EXPECT_NE(restored->body.find("\"dataset\":\"restored\""), std::string::npos)
      << restored->body;

  // The restored dataset answers byte-identically with zero new fits.
  int64_t fits_before = model_fits(client);
  Result<HttpClientResponse> replay =
      client.Post("/v1/recommend_batch", BatchBody(R"("dataset":"restored")"));
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->status, 200);
  EXPECT_EQ(replay->body, warm->body);
  EXPECT_EQ(model_fits(client), fits_before)
      << "restored dataset trained models despite a warm snapshot";
}

// ---- Keep-alive request caps -----------------------------------------------

// With max_requests_per_connection = N, response N carries Connection: close
// and the socket is cleanly closed: request N+1 on the same connection gets
// EOF, not a hang (clients reconnect): 257 pipelined requests against a cap
// of 256.
TEST(NetKeepAliveLimitTest, Request257GetsCleanClose) {
  constexpr int kCap = 256;
  ReactorServerOptions options;
  options.num_threads = 1;
  options.tick_interval_ms = 25;
  options.max_requests_per_connection = kCap;
  ReactorServer server(std::move(options), [](const HttpRequest&) {
    return HttpResponse::Json(200, "{\"pong\":true}");
  });
  ASSERT_TRUE(server.Start().ok());

  std::string pipelined;
  for (int i = 0; i < kCap + 1; ++i) {
    pipelined += "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n";
  }
  RawSocket socket(server.port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket.Send(pipelined));
  std::string raw = socket.ReadUntilClosed(10000);

  // Exactly kCap responses: the 257th request was never answered.
  size_t responses = 0;
  for (size_t pos = raw.find("HTTP/1.1 200"); pos != std::string::npos;
       pos = raw.find("HTTP/1.1 200", pos + 1)) {
    ++responses;
  }
  EXPECT_EQ(responses, static_cast<size_t>(kCap));
  // The final response announced the close; none before it did.
  size_t close_header = raw.find("Connection: close");
  ASSERT_NE(close_header, std::string::npos);
  EXPECT_EQ(raw.find("Connection: close", close_header + 1), std::string::npos);
  EXPECT_GT(close_header, raw.rfind("HTTP/1.1 200"));
  // And the server really closed: EOF, not silence.
  EXPECT_TRUE(socket.WaitForEof(5000));
  server.Stop();
}

// A cap of 1 degenerates to Connection: close on every response.
TEST(NetKeepAliveLimitTest, CapOfOneClosesAfterEveryResponse) {
  ReactorServerOptions options;
  options.num_threads = 1;
  options.tick_interval_ms = 25;
  options.max_requests_per_connection = 1;
  ReactorServer server(std::move(options), [](const HttpRequest&) {
    return HttpResponse::Json(200, "{}");
  });
  ASSERT_TRUE(server.Start().ok());

  RawSocket socket(server.port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket.Send("GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
                          "GET /b HTTP/1.1\r\nHost: x\r\n\r\n"));
  std::string raw = socket.ReadUntilClosed(5000);
  EXPECT_NE(raw.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_EQ(raw.find("HTTP/1.1 200", raw.find("HTTP/1.1 200") + 1), std::string::npos);
  EXPECT_NE(raw.find("Connection: close"), std::string::npos);
  EXPECT_TRUE(socket.WaitForEof(2000));
  server.Stop();
}

TEST(NetStreamingTest, BatchToJsonPiecesConcatenatesToToJson) {
  Result<Session> session = Session::Create(MakePanel());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Commit("time").ok());
  std::vector<ComplaintSpec> complaints;
  for (int y = 0; y < kYears; ++y) {
    complaints.push_back(ComplaintSpec::TooHigh("std", "severity")
                             .Where("year", "y" + std::to_string(y)));
  }
  Result<BatchExploreResponse> batch = session->RecommendAll(
      std::span<const ComplaintSpec>(complaints.data(), complaints.size()));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  std::string joined;
  for (const std::string& piece : batch->ToJsonPieces()) joined += piece;
  EXPECT_EQ(joined, batch->ToJson());
}

}  // namespace
}  // namespace reptile
