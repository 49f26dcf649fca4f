// Tests for the admission-control layer grown for the workload simulator:
// HttpClient deadlines against a stalled server (kDeadlineExceeded, distinct
// from kIoError), token-bucket 429s with Retry-After (with /healthz and
// /metricsz exempt), per-request queue-deadline 503 shedding (the
// connection survives; /healthz and /metricsz are never shed), the
// kDeadlineExceeded -> 504 wire mapping, and the /metricsz export of the
// transport counters.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/reactor_server.h"
#include "server/http_client.h"
#include "server/service.h"

namespace reptile {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// A listener that accepts connections and then never writes a byte — the
// shape of a wedged server that HttpClient's deadline must cut through.
class StalledListener {
 public:
  StalledListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
    accepter_ = std::thread([this] {
      for (;;) {
        int client = ::accept(fd_, nullptr, nullptr);
        if (client < 0) return;  // listener closed: test over
        accepted_.push_back(client);
      }
    });
  }

  ~StalledListener() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    accepter_.join();
    for (int client : accepted_) ::close(client);
  }

  int port() const { return port_; }

 private:
  int fd_ = -1;
  int port_ = 0;
  std::thread accepter_;
  std::vector<int> accepted_;
};

TEST(HttpClientTimeoutTest, StalledServerSurfacesDeadlineExceeded) {
  StalledListener listener;
  HttpClient client("127.0.0.1", listener.port());
  client.SetTimeoutMs(200);
  const auto start = Clock::now();
  Result<HttpClientResponse> response = client.Get("/anything");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  // Well past the 200ms deadline but nowhere near a blocking-forever hang.
  EXPECT_LT(SecondsSince(start), 5.0);

  // The failed socket was torn down; the client recovers by reconnecting
  // (and times out again — the server is still wedged, but as a fresh,
  // correctly-classified error rather than a desynced stream).
  Result<HttpClientResponse> again = client.Get("/anything");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kDeadlineExceeded);
}

// The front end + a caller-supplied handler; admission control is purely a
// front-end concern, so these tests don't need the full service.
std::unique_ptr<ReactorServer> StartFrontEnd(HttpHandler handler, double rate_limit_rps,
                                             double rate_limit_burst, int queue_deadline_ms,
                                             int num_threads) {
  ReactorServerOptions options;
  options.num_threads = num_threads;
  options.rate_limit_rps = rate_limit_rps;
  options.rate_limit_burst = rate_limit_burst;
  options.queue_deadline_ms = queue_deadline_ms;
  auto server = std::make_unique<ReactorServer>(std::move(options), std::move(handler));
  EXPECT_TRUE(server->Start().ok());
  return server;
}

HttpHandler OkHandler() {
  return [](const HttpRequest&) { return HttpResponse::Json(200, "{\"ok\":true}"); };
}

TEST(AdmissionTest, RateLimitReturns429WithRetryAfter) {
  // A refill rate of ~0 makes the test deterministic: exactly `burst`
  // requests are admitted, ever.
  std::unique_ptr<ReactorServer> server =
      StartFrontEnd(OkHandler(), /*rate_limit_rps=*/0.0001, /*rate_limit_burst=*/2.0,
                    /*queue_deadline_ms=*/0, /*num_threads=*/2);
  HttpClient client("127.0.0.1", server->port());

  for (int i = 0; i < 2; ++i) {
    Result<HttpClientResponse> admitted = client.Post("/api/op", "{}");
    ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
    EXPECT_EQ(admitted->status, 200);
  }
  Result<HttpClientResponse> limited = client.Post("/api/op", "{}");
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_EQ(limited->status, 429);
  EXPECT_NE(limited->body.find("\"code\":\"RATE_LIMITED\""), std::string::npos)
      << limited->body;
  EXPECT_NE(limited->body.find("\"http\":429"), std::string::npos);
  const std::string* retry_after = limited->FindHeader("retry-after");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_GE(std::stol(*retry_after), 1);

  // The rejection is a normal response on a healthy connection: the same
  // client keeps talking, and the health/metrics routes stay exempt no
  // matter how drained the bucket is.
  for (int i = 0; i < 3; ++i) {
    Result<HttpClientResponse> health = client.Get("/healthz");
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    EXPECT_EQ(health->status, 200);
    Result<HttpClientResponse> metrics = client.Get("/metricsz");
    ASSERT_TRUE(metrics.ok());
    // The bare front end has no /metricsz handler (the service provides
    // it); exempt means "reached the handler", i.e. NOT 429.
    EXPECT_NE(metrics->status, 429);
  }
  EXPECT_EQ(server->requests_rate_limited(), 1);
  EXPECT_EQ(server->requests_shed(), 0);
  // Dispatched means handed to the handler pool: the 2 admitted requests and
  // the 6 exempt ones, never the 429.
  EXPECT_EQ(server->requests_dispatched(), 8);
}

// Holds the front end's one worker on demand: the handler for /slow
// announces that it is running, then blocks until the test releases it.
class WorkerGate {
 public:
  void HoldWorker() {
    std::unique_lock<std::mutex> lock(mu_);
    held_ = true;
    changed_.notify_all();
    changed_.wait(lock, [this] { return released_; });
  }
  void WaitUntilHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [this] { return held_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    changed_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable changed_;
  bool held_ = false;
  bool released_ = false;
};

TEST(AdmissionTest, QueueDeadlineShedsBehindABusyWorker) {
  WorkerGate gate;
  // One worker + a 1ms deadline: a request queued behind /slow for longer
  // than that is shed when the worker frees up.
  std::unique_ptr<ReactorServer> server = StartFrontEnd(
      [&gate](const HttpRequest& request) {
        if (request.path == "/slow") gate.HoldWorker();
        return HttpResponse::Json(200, "{\"ok\":true}");
      },
      /*rate_limit_rps=*/0.0, /*rate_limit_burst=*/0.0, /*queue_deadline_ms=*/1,
      /*num_threads=*/1);

  // The 1ms deadline applies to /slow too: on a loaded host it can be shed
  // before the worker picks it up. Re-send it until its handler runs.
  std::thread slow([&server] {
    HttpClient client("127.0.0.1", server->port());
    for (;;) {
      Result<HttpClientResponse> response = client.Get("/slow");
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      if (response->status != 503) {
        EXPECT_EQ(response->status, 200);
        return;
      }
    }
  });
  gate.WaitUntilHeld();

  // The victim and both monitoring probes are dispatched while /slow holds
  // the worker; once they have queued for well over the deadline, /slow lets
  // the worker go. Only the victim is shed: a probe refused under overload
  // would hide the overload itself.
  const int64_t dispatched = server->requests_dispatched();
  const int64_t shed_before = server->requests_shed();
  HttpClient victim("127.0.0.1", server->port());
  Result<HttpClientResponse> shed = Status::Internal("victim never answered");
  std::thread victim_thread([&victim, &shed] { shed = victim.Get("/fast"); });
  std::vector<Result<HttpClientResponse>> probes(2, Status::Internal("probe never answered"));
  std::vector<std::thread> probe_threads;
  for (size_t i = 0; i < probes.size(); ++i) {
    probe_threads.emplace_back([&server, &probes, i] {
      probes[i] = HttpClient("127.0.0.1", server->port()).Get(i == 0 ? "/healthz" : "/metricsz");
    });
  }
  while (server->requests_dispatched() < dispatched + 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Release();
  victim_thread.join();
  for (std::thread& t : probe_threads) t.join();
  slow.join();

  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status, 503);
  EXPECT_NE(shed->body.find("\"code\":\"OVERLOADED\""), std::string::npos)
      << shed->body;
  for (const Result<HttpClientResponse>& probe : probes) {
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    EXPECT_EQ(probe->status, 200) << probe->body;
  }
  EXPECT_EQ(server->requests_shed(), shed_before + 1);
  EXPECT_EQ(server->requests_rate_limited(), 0);

  // With the worker idle again the same client is served normally, on the
  // same connection: shedding is per request and never closes it. (A loaded
  // host can still miss the 1ms deadline; each miss must be the same 503.)
  const int64_t accepted = server->connections_accepted();
  Result<HttpClientResponse> after = victim.Get("/fast");
  for (int attempt = 0; attempt < 100 && after.ok() && after->status == 503; ++attempt) {
    after = victim.Get("/fast");
  }
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->status, 200);
  EXPECT_EQ(server->connections_accepted(), accepted);
}

TEST(AdmissionTest, DeadlineExceededMapsTo504OnTheWire) {
  ReactorServerOptions server_options;
  server_options.num_threads = 1;
  ReactorServer server(server_options, [](const HttpRequest&) {
    return ReptileService::ErrorResponse(Status::DeadlineExceeded("engine budget spent"));
  });
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  Result<HttpClientResponse> response = client.Post("/v1/recommend", "{}");
  server.Stop();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 504);
  EXPECT_NE(response->body.find("\"code\":\"DEADLINE_EXCEEDED\""), std::string::npos)
      << response->body;
  EXPECT_NE(response->body.find("\"http\":504"), std::string::npos);
}

TEST(AdmissionTest, MetricszExportsRateLimitAndShedCounters) {
  // The serve_main wiring in miniature: the front end registers its
  // counters on the service's registry, so they surface on /metricsz as
  // reptile_transport_* gauges. The server is declared first so that the
  // service, whose registry reads it, is destroyed first.
  std::unique_ptr<ReactorServer> server;
  ReptileService service;

  ReactorServerOptions server_options;
  server_options.num_threads = 2;
  server_options.rate_limit_rps = 0.0001;
  server_options.rate_limit_burst = 1.0;
  server = std::make_unique<ReactorServer>(
      server_options, [&service](const HttpRequest& request) { return service.Handle(request); });
  server->RegisterMetrics(&service.metrics());
  ASSERT_TRUE(server->Start().ok());

  HttpClient client("127.0.0.1", server->port());
  Result<HttpClientResponse> admitted = client.Post("/api/op", "{}");
  ASSERT_TRUE(admitted.ok());
  Result<HttpClientResponse> limited = client.Post("/api/op", "{}");
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->status, 429);

  Result<HttpClientResponse> metrics = client.Get("/metricsz");
  server->Stop();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("reptile_transport_requests_rate_limited 1"),
            std::string::npos)
      << metrics->body;
  EXPECT_NE(metrics->body.find("reptile_transport_requests_shed 0"),
            std::string::npos);
}

}  // namespace
}  // namespace reptile
