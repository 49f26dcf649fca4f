#include "net/connection.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "net/reactor_server.h"

namespace reptile {

namespace {
// Lingering-close bounds: after an error response, drain at most this much
// of the unread request (so the client sees the response, not a reset) for
// at most this long.
constexpr size_t kMaxDrainBytes = 16 * 1024 * 1024;
constexpr std::chrono::seconds kDrainDeadline{5};
// Per-EPOLLIN fairness cap: after this many recv() calls yield the loop so
// one fast sender cannot starve every other connection (level-triggered
// epoll re-reports the remainder immediately).
constexpr int kMaxReadsPerEvent = 16;
}  // namespace

Connection::Connection(ReactorServer* server, int fd, uint64_t id)
    : server_(server),
      fd_(fd),
      id_(id),
      parser_(server->options_.max_header_bytes) {
  const auto now = std::chrono::steady_clock::now();
  last_read_progress_ = now;
  last_write_progress_ = now;
  header_start_ = now;
  epoll_interest_ = EPOLLIN;
}

Connection::~Connection() {
  // Close() already released the fd for the normal paths; this covers
  // connections torn down by ReactorServer shutdown after the loop exited.
  if (fd_ >= 0) ::close(fd_);
}

void Connection::OnIoEvent(uint32_t events) {
  if (state_ == State::kClosed) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    Close();
    return;
  }
  if (events & EPOLLOUT) {
    FlushWrites();
    if (state_ == State::kClosed) return;
  }
  if (events & EPOLLIN) HandleReadable();
}

void Connection::HandleReadable() {
  const auto now = std::chrono::steady_clock::now();
  char buffer[16 * 1024];

  if (state_ == State::kDraining) {
    for (int i = 0; i < kMaxReadsPerEvent; ++i) {
      ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        Close();
        return;
      }
      if (n == 0) {
        // Peer finished sending. Our error response may still be queued:
        // close only once it has been flushed.
        drain_eof_ = true;
        if (write_queue_.empty()) Close();
        return;
      }
      drained_bytes_ += static_cast<size_t>(n);
      if (drained_bytes_ > kMaxDrainBytes) {
        Close();
        return;
      }
    }
    return;
  }

  if (state_ != State::kReadHead && state_ != State::kReadBody) return;

  for (int i = 0; i < kMaxReadsPerEvent; ++i) {
    ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      Close();
      return;
    }
    if (n == 0) {
      // Orderly EOF — between requests or mid-request, close silently:
      // there is no one left to answer.
      Close();
      return;
    }
    if (state_ == State::kReadHead && !reading_request_) {
      reading_request_ = true;
      header_start_ = now;
    }
    last_read_progress_ = now;
    parser_.Feed(std::string_view(buffer, static_cast<size_t>(n)));
    AdvanceParser();
    if (state_ != State::kReadHead && state_ != State::kReadBody) return;
  }
}

void Connection::AdvanceParser() {
  for (;;) {
    switch (parser_.Step()) {
      case HttpRequestParser::Phase::kHead:
      case HttpRequestParser::Phase::kBody:
        if (state_ == State::kReadHead &&
            parser_.phase() != HttpRequestParser::Phase::kHead) {
          state_ = State::kReadBody;
        }
        return;  // need more bytes
      case HttpRequestParser::Phase::kHeadDone: {
        keep_alive_ = RequestKeepsAlive(parser_.request());
        if (server_->stopping()) keep_alive_ = false;
        // This request's response will be the connection's Nth: at the limit
        // it carries "Connection: close" and FinishResponse() closes.
        ++requests_started_;
        if (server_->options_.max_requests_per_connection > 0 &&
            requests_started_ >= server_->options_.max_requests_per_connection) {
          keep_alive_ = false;
        }
        bool streamed = false;
        if (server_->options_.stream_factory) {
          if (std::unique_ptr<HttpBodySink> sink =
                  server_->options_.stream_factory(parser_.request())) {
            sink_ = std::move(sink);
            streamed_upload_ = true;
            // The stream position is unrecoverable if the sink aborts
            // mid-body, so streamed uploads always close afterwards.
            keep_alive_ = false;
            parser_.BeginStreamedBody(sink_.get(),
                                      server_->options_.max_stream_body_bytes);
            streamed = true;
          }
        }
        if (!streamed) parser_.BeginBufferedBody(server_->options_.max_body_bytes);
        continue;
      }
      case HttpRequestParser::Phase::kComplete:
        if (streamed_upload_) {
          // Finish() (the dataset build or the append) runs here on the
          // loop thread, so every other connection waits while it runs.
          // Moving it to the handler pool was measured to slow appends, so
          // it stays until that cost is removed.
          HttpResponse response = sink_->Finish(/*complete=*/true);
          sink_.reset();
          streamed_upload_ = false;
          state_ = State::kWriting;
          SetReadInterest(false);
          QueueResponse(std::move(response));
        } else if (server_->stopping()) {
          Close();  // don't start new work during shutdown
        } else {
          DispatchToHandler();
        }
        return;
      case HttpRequestParser::Phase::kSinkAborted: {
        HttpResponse response = sink_->Finish(/*complete=*/false);
        sink_.reset();
        streamed_upload_ = false;
        EnterDraining(std::move(response));
        return;
      }
      case HttpRequestParser::Phase::kError:
        // An oversized streamed upload lands here before any byte reached
        // the sink; it is dropped unfinished, like a vanished peer.
        sink_.reset();
        streamed_upload_ = false;
        EnterDraining(parser_.error_response());
        return;
    }
  }
}

void Connection::DispatchToHandler() {
  state_ = State::kHandling;
  SetReadInterest(false);
  server_->DispatchHandler(id_, std::move(parser_.request()));
}

void Connection::OnHandlerResult(HttpResponse response, bool force_close) {
  if (state_ != State::kHandling) return;  // connection died while computing
  if (force_close || server_->stopping()) keep_alive_ = false;
  state_ = State::kWriting;
  QueueResponse(std::move(response));
}

void Connection::QueueResponse(HttpResponse response) {
  Enqueue(SerializeResponseHead(response, keep_alive_));
  Enqueue(std::move(response.body));
  FlushWrites();
}

void Connection::EnterDraining(HttpResponse response) {
  keep_alive_ = false;
  state_ = State::kDraining;
  drained_bytes_ = 0;
  drain_deadline_ = std::chrono::steady_clock::now() + kDrainDeadline;
  drain_write_done_ = false;
  drain_eof_ = false;
  Enqueue(SerializeResponseHead(response, /*keep_alive=*/false));
  Enqueue(std::move(response.body));
  SetReadInterest(true);  // keep consuming what the peer already sent
  FlushWrites();
}

void Connection::FlushWrites() {
  if (state_ == State::kClosed) return;
  const auto now = std::chrono::steady_clock::now();
  for (;;) {
    if (write_queue_.empty()) {
      SetWriteInterest(false);
      if (state_ == State::kWriting) {
        FinishResponse();
      } else if (state_ == State::kDraining && !drain_write_done_) {
        drain_write_done_ = true;
        ::shutdown(fd_, SHUT_WR);  // our FIN tells the peer the response is whole
        if (drain_eof_) Close();
      }
      return;
    }
    const std::string& front = write_queue_.front();
    ssize_t n = ::send(fd_, front.data() + front_offset_,
                       front.size() - front_offset_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        SetWriteInterest(true);
        return;
      }
      Close();  // EPIPE / ECONNRESET: peer is gone
      return;
    }
    front_offset_ += static_cast<size_t>(n);
    queued_bytes_ -= static_cast<size_t>(n);
    server_->queued_bytes_.fetch_sub(n);
    last_write_progress_ = now;
    if (front_offset_ == front.size()) {
      write_queue_.pop_front();
      front_offset_ = 0;
    }
  }
}

void Connection::Enqueue(std::string data) {
  if (data.empty()) return;
  queued_bytes_ += data.size();
  server_->queued_bytes_.fetch_add(data.size());
  write_queue_.push_back(std::move(data));
}

void Connection::FinishResponse() {
  if (!keep_alive_ || server_->stopping()) {
    Close();
    return;
  }
  ResetForNextRequest();
}

void Connection::ResetForNextRequest() {
  parser_.ResetForNextRequest();
  state_ = State::kReadHead;
  const auto now = std::chrono::steady_clock::now();
  last_read_progress_ = now;
  header_start_ = now;
  reading_request_ = parser_.has_partial_input();
  SetReadInterest(true);
  // A pipelined next request may already be buffered — drive it now rather
  // than waiting for more bytes that may never come.
  if (reading_request_) AdvanceParser();
}

void Connection::OnTick(std::chrono::steady_clock::time_point now) {
  switch (state_) {
    case State::kReadHead:
    case State::kReadBody: {
      const int idle = server_->options_.idle_timeout_seconds;
      if (idle > 0 && now - last_read_progress_ >= std::chrono::seconds(idle)) {
        if (state_ == State::kReadHead && reading_request_) {
          // Slow-loris: a partial head past the deadline gets a 408; an
          // idle keep-alive closes silently.
          EnterDraining(HttpFramingError(408, "timed out reading the request"));
        } else {
          Close();
        }
      }
      break;
    }
    case State::kHandling:
      break;  // compute may legitimately take long; no deadline
    case State::kWriting:
    case State::kDraining: {
      const double stall = server_->options_.write_stall_seconds;
      if (stall > 0 && !write_queue_.empty() &&
          now - last_write_progress_ >=
              std::chrono::duration<double>(stall)) {
        server_->slow_client_disconnects_.fetch_add(1);
        Close();
        break;
      }
      if (state_ == State::kDraining && now >= drain_deadline_) Close();
      break;
    }
    case State::kClosed:
      break;
  }
}

void Connection::OnServerStopping() {
  switch (state_) {
    case State::kReadHead:
    case State::kReadBody:
      Close();  // no in-flight response to preserve
      break;
    case State::kHandling:
    case State::kWriting:
    case State::kDraining:
      keep_alive_ = false;  // finish the in-flight response, then close
      break;
    case State::kClosed:
      break;
  }
}

void Connection::Close() {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  server_->queued_bytes_.fetch_sub(static_cast<int64_t>(queued_bytes_));
  queued_bytes_ = 0;
  write_queue_.clear();
  sink_.reset();
  server_->loop_.Remove(fd_);
  ::close(fd_);
  fd_ = -1;
  server_->OnConnectionClosed(id_);
}

void Connection::SetReadInterest(bool readable) {
  if (read_enabled_ == readable) return;
  read_enabled_ = readable;
  UpdateEpollInterest();
}

void Connection::SetWriteInterest(bool writable) {
  if (write_enabled_ == writable) return;
  write_enabled_ = writable;
  UpdateEpollInterest();
}

void Connection::UpdateEpollInterest() {
  if (state_ == State::kClosed) return;
  uint32_t mask = 0;
  if (read_enabled_) mask |= EPOLLIN;
  if (write_enabled_) mask |= EPOLLOUT;
  if (mask == epoll_interest_) return;
  epoll_interest_ = mask;
  server_->loop_.Modify(fd_, mask);
}

}  // namespace reptile
