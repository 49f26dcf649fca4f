#include "net/reactor_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "net/connection.h"
#include "net/http_codec.h"
#include "net/token_bucket.h"
#include "parallel/thread_pool.h"

namespace reptile {

ReactorServer::ReactorServer(ReactorServerOptions options, HttpHandler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {
  REPTILE_CHECK(handler_ != nullptr);
  if (options_.rate_limit_rps > 0.0) {
    limiter_ = std::make_unique<TokenBucket>(options_.rate_limit_rps,
                                             options_.rate_limit_burst);
  }
  pool_ = std::make_unique<ThreadPool>(options_.num_threads < 1 ? 1 : options_.num_threads);
}

ReactorServer::~ReactorServer() { Stop(); }

Status ReactorServer::Start() {
  REPTILE_CHECK(!started_.load()) << "ReactorServer::Start called twice";
  Status status = loop_.Init();
  if (!status.ok()) return status;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address '" + options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    status = Status::IoError("bind(" + options_.bind_address + ":" +
                             std::to_string(options_.port) + "): " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) != 0) {
    status = Status::IoError(std::string("listen(): ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    status = Status::IoError(std::string("getsockname(): ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = static_cast<int>(ntohs(bound.sin_port));

  loop_.SetTickHandler([this] { OnTick(); }, options_.tick_interval_ms);
  status = loop_.Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAcceptReady(); });
  if (!status.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  started_.store(true);
  loop_thread_ = std::thread([this] { loop_.Run(); });
  return Status::Ok();
}

void ReactorServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);  // serialize concurrent Stop()s
  if (!started_.load() || stopping_.load()) return;
  stopping_.store(true, std::memory_order_release);

  // 1. Stop accepting.
  loop_.Post([this] {
    if (listen_fd_ >= 0) {
      loop_.Remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  });

  // 2. Let in-flight handlers finish and their responses land on the loop
  //    (stopping_ downgrades them to Connection: close).
  {
    std::unique_lock<std::mutex> lock(handlers_mu_);
    handlers_done_.wait(lock, [this] { return handlers_in_flight_ == 0; });
  }

  // 3. Close idle connections now; writing connections get a grace period
  //    to flush their last response, then are force-closed.
  loop_.Post([this] {
    for (auto& [id, connection] : connections_) {
      if (!connection->closed()) connection->OnServerStopping();
    }
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (open_connections_.load() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (open_connections_.load() > 0) {
    loop_.Post([this] {
      for (auto& [id, connection] : connections_) {
        if (!connection->closed()) connection->Close();
      }
    });
    const auto force_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (open_connections_.load() > 0 &&
           std::chrono::steady_clock::now() < force_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // 4. Stop the loop and join; after this no callback can run, so the
  //    remaining maps can be torn down from this thread.
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  connections_.clear();
  pool_.reset();  // joins handler workers (all tasks completed in 2.)
  // started_ stays true: a stopped server cannot be restarted.
}

void ReactorServer::OnAcceptReady() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        // Out of descriptors/memory. The listen fd stays readable, so
        // returning would spin the loop; mute it until the next tick gives
        // handlers a chance to release resources.
        listen_backoff_ = true;
        loop_.Modify(listen_fd_, 0);
        return;
      }
      // Anything else (ECONNABORTED, EPROTO, ...) concerns only the one
      // aborted connection — the listener is fine, keep accepting.
      continue;
    }
    connections_accepted_.fetch_add(1);
    if (stopping()) {
      ::close(fd);
      continue;
    }
    if (options_.max_connections > 0 &&
        open_connections_.load() >= options_.max_connections) {
      // Admission control: refuse loudly instead of queueing invisibly. The
      // response is a handful of bytes into an empty socket buffer — a
      // blocking-free best effort.
      overload_rejections_.fetch_add(1);
      HttpResponse busy = HttpFramingError(503, "server is at its connection limit");
      std::string wire = SerializeResponseHead(busy, /*keep_alive=*/false,
                                               /*chunked=*/false);
      wire += busy.body;
      (void)::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint64_t id = next_connection_id_++;
    auto connection = std::make_unique<Connection>(this, fd, id);
    Connection* raw = connection.get();
    connections_.emplace(id, std::move(connection));
    open_connections_.fetch_add(1);
    Status status = loop_.Add(fd, EPOLLIN, [raw](uint32_t events) { raw->OnIoEvent(events); });
    if (!status.ok()) {
      raw->Close();  // undoes the bookkeeping above
    }
  }
}

void ReactorServer::DispatchHandler(uint64_t connection_id, HttpRequest request) {
  if (limiter_ != nullptr && request.path != "/healthz" && request.path != "/metricsz") {
    double retry_after = 0.0;
    if (!limiter_->TryAcquire(&retry_after)) {
      // Refuse without touching the pool. The result hops through Post like
      // any handler result: we are inside a Connection callback here, and
      // OnHandlerResult must not re-enter the connection mid-frame.
      requests_rate_limited_.fetch_add(1);
      loop_.Post([this, connection_id,
                  response = RateLimitedError(retry_after)]() mutable {
        auto it = connections_.find(connection_id);
        if (it != connections_.end() && !it->second->closed()) {
          it->second->OnHandlerResult(std::move(response), /*force_close=*/false);
        }
      });
      return;
    }
  }
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    ++handlers_in_flight_;
  }
  const auto dispatched_at = std::chrono::steady_clock::now();
  pool_->Submit([this, connection_id, dispatched_at,
                 request = std::move(request)]() mutable {
    HttpResponse response;
    bool force_close = false;
    const double waited_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - dispatched_at)
                                 .count();
    if (options_.queue_deadline_ms > 0 && !stopping() &&
        waited_ms > options_.queue_deadline_ms) {
      // Shed: with every worker busy, this request aged out in the pool
      // queue. Per-request — keep-alive survives and the client retries.
      requests_shed_.fetch_add(1);
      response = QueueDeadlineError(waited_ms, options_.queue_deadline_ms);
    } else {
      try {
        response = handler_(request);
      } catch (const std::exception& e) {
        response = HttpFramingError(500, std::string("unhandled exception: ") + e.what());
        force_close = true;
      } catch (...) {
        response = HttpFramingError(500, "unhandled exception");
        force_close = true;
      }
    }
    loop_.Post([this, connection_id, response = std::move(response), force_close]() mutable {
      auto it = connections_.find(connection_id);
      if (it != connections_.end() && !it->second->closed()) {
        it->second->OnHandlerResult(std::move(response), force_close);
      }
      std::lock_guard<std::mutex> lock(handlers_mu_);
      if (--handlers_in_flight_ == 0) handlers_done_.notify_all();
    });
  });
}

void ReactorServer::OnConnectionClosed(uint64_t connection_id) {
  open_connections_.fetch_sub(1);
  // The caller may be a Connection member function several frames up;
  // destroy the object only after the current callback unwinds.
  loop_.Post([this, connection_id] { connections_.erase(connection_id); });
}

void ReactorServer::OnTick() {
  const auto now = std::chrono::steady_clock::now();
  if (now - last_tick_ < std::chrono::milliseconds(options_.tick_interval_ms)) return;
  last_tick_ = now;
  if (listen_backoff_ && listen_fd_ >= 0) {
    listen_backoff_ = false;
    loop_.Modify(listen_fd_, EPOLLIN);
  }
  for (auto& [id, connection] : connections_) {
    if (!connection->closed()) connection->OnTick(now);
  }
}

std::string ReactorServer::StatsJson() const {
  std::string out = "{\"open_connections\":";
  out += std::to_string(open_connections_.load());
  out += ",\"connections_accepted\":";
  out += std::to_string(connections_accepted_.load());
  out += ",\"requests_dispatched\":";
  out += std::to_string(requests_dispatched_.load());
  out += ",\"queued_bytes\":";
  out += std::to_string(queued_bytes_.load());
  out += ",\"backpressure_trips\":";
  out += std::to_string(backpressure_trips_.load());
  out += ",\"slow_client_disconnects\":";
  out += std::to_string(slow_client_disconnects_.load());
  out += ",\"overload_rejections\":";
  out += std::to_string(overload_rejections_.load());
  out += ",\"requests_rate_limited\":";
  out += std::to_string(requests_rate_limited_.load());
  out += ",\"requests_shed\":";
  out += std::to_string(requests_shed_.load());
  out += "}";
  return out;
}

}  // namespace reptile
