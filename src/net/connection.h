// One reactor-owned HTTP connection: a small state machine driven entirely
// on the event-loop thread. The cost of a slow or idle client is this
// object plus its parser buffer — a few KB — never a blocked thread.
//
// Lifecycle:
//
//   kReadHead ── head parsed ──> kReadBody ── complete ──> kHandling
//       │                            │                        │ handler runs on
//       │ (framing error)            │ (sink aborted)         │ the compute pool;
//       v                            v                        │ result Post()ed back
//   kDraining <──────────────────────┘                        v
//       │                                                  kWriting ──> close, or
//       └──> close                                            └──> back to kReadHead
//                                                                  (keep-alive)
//
// While a handler is in flight the connection's read interest is masked
// off, so a client pipelining requests cannot get two handlers running on
// one connection: requests on a connection are answered one at a time, in
// order.
//
// Writes are queued and flushed as EPOLLOUT allows. The queue is bounded by
// a high-water mark: streamed responses stop pulling pieces until the queue
// drains (backpressure), and a connection making no write progress for
// `write_stall_seconds` is disconnected as a slow client.

#ifndef REPTILE_NET_CONNECTION_H_
#define REPTILE_NET_CONNECTION_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "net/http_codec.h"
#include "net/http_message.h"

namespace reptile {

class ReactorServer;

class Connection {
 public:
  Connection(ReactorServer* server, int fd, uint64_t id);
  ~Connection();  // closes the fd if still open

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  uint64_t id() const { return id_; }
  bool closed() const { return state_ == State::kClosed; }

  /// Ready-event dispatch from the loop.
  void OnIoEvent(uint32_t events);

  /// Periodic deadline check (idle, header read, write stall, drain bound).
  void OnTick(std::chrono::steady_clock::time_point now);

  /// Handler result, re-entering on the loop thread via Post().
  /// `force_close` closes after the response regardless of keep-alive (the
  /// handler threw).
  void OnHandlerResult(HttpResponse response, bool force_close);

  /// Server is stopping: close immediately unless a response is being
  /// written (it finishes with Connection: close, then closes).
  void OnServerStopping();

  /// Force-close regardless of state (Stop() deadline expired).
  void Close();

 private:
  enum class State { kReadHead, kReadBody, kHandling, kWriting, kDraining, kClosed };

  void HandleReadable();
  void AdvanceParser();
  void DispatchToHandler();
  /// Queues `response` (head + body or chunked stream) and starts flushing.
  void QueueResponse(HttpResponse response);
  /// Queues an error response, then lingers: drain what the peer has in
  /// flight (bounded) so our response isn't destroyed by an RST.
  void EnterDraining(HttpResponse response);
  void PumpStream();
  void FlushWrites();
  void Enqueue(std::string data);
  void FinishResponse();  // write queue fully flushed
  void ResetForNextRequest();
  void SetReadInterest(bool readable);
  void SetWriteInterest(bool writable);
  void UpdateEpollInterest();

  ReactorServer* server_;
  int fd_;
  uint64_t id_;
  State state_ = State::kReadHead;

  HttpRequestParser parser_;
  std::unique_ptr<HttpBodySink> sink_;  // streamed-upload sink, if any
  bool streamed_upload_ = false;

  // Per-exchange framing decisions, captured when the head is parsed.
  bool keep_alive_ = false;
  std::string http_version_;
  int64_t requests_started_ = 0;  // for max_requests_per_connection

  // Write side: queued wire bytes; front_offset_ indexes into the front
  // element. body_stream_ holds an unfinished streamed response.
  std::deque<std::string> write_queue_;
  size_t front_offset_ = 0;
  size_t queued_bytes_ = 0;
  std::function<bool(std::string*)> body_stream_;
  bool backpressure_episode_ = false;  // count one trip per congested episode

  // Deadlines (steady clock). header_start_ is set when the first byte of a
  // new request arrives; last_read_/last_write_progress_ advance on bytes
  // actually moved.
  std::chrono::steady_clock::time_point last_read_progress_;
  std::chrono::steady_clock::time_point last_write_progress_;
  std::chrono::steady_clock::time_point header_start_;
  bool reading_request_ = false;  // partial request bytes seen (408 vs silent close)
  bool read_enabled_ = true;
  bool write_enabled_ = false;

  // Draining-state bookkeeping (lingering close).
  size_t drained_bytes_ = 0;
  std::chrono::steady_clock::time_point drain_deadline_;
  bool drain_write_done_ = false;
  bool drain_eof_ = false;

  uint32_t epoll_interest_ = 0;
};

}  // namespace reptile

#endif  // REPTILE_NET_CONNECTION_H_
