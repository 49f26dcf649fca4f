// The HTTP/1.1 front end of reptile_serve: one epoll reactor thread owns
// every connection (see net/connection.h), complete parsed requests are
// handed to a compute thread pool, and responses hop back to the loop via
// Post(). Framing lives in net/http_codec.h; tests/net_test.cpp compares the
// bytes on the wire against ReptileService::Handle called in process.
//
// Design:
//  * An idle or slow client costs a few KB of connection state, not a
//    blocked thread — thousands of keep-alive connections are fine with a
//    fixed thread count (1 loop thread + num_threads workers).
//  * Backpressure is explicit: per-connection write queues are bounded by a
//    high-water mark; streamed responses pause instead of ballooning, and
//    clients that stop reading are disconnected (slow_client_disconnects).
//  * Admission control: past `max_connections`, new connections get an
//    immediate 503 and close (overload_rejections) instead of queuing
//    invisibly in a pool.
//
// Observability counters are exported via StatsJson() — the serving binary
// wires them into /healthz.

#ifndef REPTILE_NET_REACTOR_SERVER_H_
#define REPTILE_NET_REACTOR_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "api/status.h"
#include "net/event_loop.h"
#include "net/http_message.h"

namespace reptile {

class Connection;
class ThreadPool;  // parallel/thread_pool.h

struct ReactorServerOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;         // 0 = ephemeral; the bound port is port()
  int num_threads = 4;  // handler (compute) workers
  size_t max_header_bytes = 64 * 1024;
  size_t max_body_bytes = 8 * 1024 * 1024;
  // Cap for request bodies consumed through `stream_factory` sinks (they
  // never buffer, so this can be far above max_body_bytes).
  size_t max_stream_body_bytes = size_t{1} << 30;
  // Seconds a connection may sit idle between requests (also the deadline
  // for receiving a complete request head — the slow-loris bound). 0 = off.
  int idle_timeout_seconds = 30;
  // After this many responses on one connection the server answers with
  // "Connection: close" and closes — bounds per-connection resource drift
  // and redistributes long-lived clients across a load-balanced fleet.
  // 0 = unlimited.
  int64_t max_requests_per_connection = 0;
  // A connection whose write queue makes no progress for this long is
  // disconnected as a slow client. 0 = off.
  double write_stall_seconds = 10.0;
  // Per-connection write-queue high-water mark: streamed responses stop
  // pulling pieces above it until the queue drains below again.
  size_t write_high_water_bytes = size_t{1} << 20;
  // Open-connection cap; 0 = unlimited. Beyond it new connections receive
  // an immediate 503 and are closed.
  int64_t max_connections = 0;
  // Admission rate limit in requests/second over dispatched API requests
  // (streamed uploads and the /healthz + /metricsz probes are exempt).
  // Refusals get the shared 429 RATE_LIMITED envelope with Retry-After and
  // keep the connection open — a limited client should retry, not
  // reconnect. 0 = unlimited.
  double rate_limit_rps = 0.0;
  // Bucket depth for the limiter; <= 0 defaults to max(rate_limit_rps, 1).
  double rate_limit_burst = 0.0;
  // Shed a request that waited longer than this in the handler-pool queue:
  // it gets the shared 503 OVERLOADED envelope instead of compute that
  // would finish too late to matter. Per-request — the connection survives.
  // 0 = never shed.
  int queue_deadline_ms = 0;
  // Deadline-check granularity (bounds how late idle/stall deadlines fire).
  int tick_interval_ms = 100;
  // Optional hook consulted once a request head is parsed: return a sink to
  // stream the body instead of buffering it (see net/http_message.h). Sinks
  // run on the loop thread, Finish() included; keep Append() cheap.
  HttpStreamFactory stream_factory;
};

class ReactorServer {
 public:
  ReactorServer(ReactorServerOptions options, HttpHandler handler);
  ~ReactorServer();  // calls Stop()

  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  /// Binds, listens, and starts the loop thread. Call once.
  Status Start();

  /// Stops accepting, waits for in-flight handlers, flushes pending
  /// responses (bounded), closes every connection, and joins the loop.
  /// Idempotent; safe from any thread except the loop or a handler.
  void Stop();

  /// The bound port (resolves 0 to the ephemeral port). Valid after Start().
  int port() const { return port_; }

  // -- Counters (all monotonic except open_connections / queued_bytes) --
  int64_t connections_accepted() const { return connections_accepted_.load(); }
  int64_t open_connections() const { return open_connections_.load(); }
  int64_t queued_bytes() const { return queued_bytes_.load(); }
  int64_t backpressure_trips() const { return backpressure_trips_.load(); }
  int64_t slow_client_disconnects() const { return slow_client_disconnects_.load(); }
  int64_t overload_rejections() const { return overload_rejections_.load(); }
  int64_t requests_dispatched() const { return requests_dispatched_.load(); }
  int64_t requests_rate_limited() const { return requests_rate_limited_.load(); }
  int64_t requests_shed() const { return requests_shed_.load(); }

  /// The counters as a JSON object (for /healthz's "transport" section).
  std::string StatsJson() const;

 private:
  friend class Connection;

  void OnAcceptReady();
  void DispatchHandler(uint64_t connection_id, HttpRequest request);
  /// Marks the connection closed in the map and schedules its destruction
  /// after the current callback unwinds.
  void OnConnectionClosed(uint64_t connection_id);
  void OnTick();
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  ReactorServerOptions options_;
  HttpHandler handler_;
  std::unique_ptr<class TokenBucket> limiter_;  // null when rate_limit_rps <= 0
  // Handler workers. Owned, so a handler's compute fan-out on the engine's
  // pool can never queue behind blocked handler tasks.
  std::unique_ptr<ThreadPool> pool_;

  EventLoop loop_;
  std::thread loop_thread_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;  // serializes Stop() callers

  // Loop-thread state.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 1;
  std::chrono::steady_clock::time_point last_tick_{};
  bool listen_backoff_ = false;  // accept() hit EMFILE; re-arm on next tick

  // Handler-in-flight accounting for Stop(): decremented on the loop thread
  // after the result lands (or is dropped for a dead connection).
  std::mutex handlers_mu_;
  std::condition_variable handlers_done_;
  int64_t handlers_in_flight_ = 0;

  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> open_connections_{0};
  std::atomic<int64_t> queued_bytes_{0};
  std::atomic<int64_t> backpressure_trips_{0};
  std::atomic<int64_t> slow_client_disconnects_{0};
  std::atomic<int64_t> overload_rejections_{0};
  std::atomic<int64_t> requests_dispatched_{0};
  std::atomic<int64_t> requests_rate_limited_{0};
  std::atomic<int64_t> requests_shed_{0};
};

}  // namespace reptile

#endif  // REPTILE_NET_REACTOR_SERVER_H_
