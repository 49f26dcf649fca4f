// HTTP/1.1 framing for the epoll reactor (net/reactor_server.h): request
// parsing through HttpRequestParser, an incremental state machine fed
// whatever bytes epoll delivers, plus response-head serialization
// (Content-Length framing only) and the transport error envelopes.

#ifndef REPTILE_NET_HTTP_CODEC_H_
#define REPTILE_NET_HTTP_CODEC_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "net/http_message.h"

namespace reptile {

/// The standard error envelope for transport-level failures, matching the
/// routing layer's shape: {"error":{"code":...,"http":N,"message":...}}.
HttpResponse HttpFramingError(int status, const std::string& message);

/// The 429 for a request refused by admission rate limiting (code
/// RATE_LIMITED), carrying a Retry-After header of ceil(retry_after_seconds)
/// (at least 1).
HttpResponse RateLimitedError(double retry_after_seconds);

/// The 503 for a request shed because it sat in the compute-pool queue past
/// the server's --queue-deadline-ms (code OVERLOADED). `waited_ms` is how
/// long it actually queued.
HttpResponse QueueDeadlineError(double waited_ms, int deadline_ms);

/// Serializes the status line and framing headers, "Content-Length:
/// <body.size()>" among them (terminating blank line included, body not
/// included).
std::string SerializeResponseHead(const HttpResponse& response, bool keep_alive);

/// Computes whether the connection stays open after this exchange:
/// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, an explicit
/// Connection header overrides either way.
bool RequestKeepsAlive(const HttpRequest& request);

/// Incremental request parser for the event-driven front end. Feed it whatever
/// bytes arrive; it pauses at two decision points:
///
///   kHeadDone  — head parsed and framing validated. The caller inspects
///                request()/content_length() and picks a body mode with
///                BeginBufferedBody() or BeginStreamedBody(), then calls
///                Step() again.
///   kComplete  — a full request is ready (buffered body in request().body,
///                or every body byte fed to the sink). After the response,
///                ResetForNextRequest() re-arms, keeping pipelined leftover
///                bytes.
///
/// kError means error_response() must be written and the connection closed;
/// kSinkAborted means the sink refused further bytes — the caller stops
/// feeding, drains briefly, writes sink->Finish(false), and closes.
///
/// The head scan is strict (RFC 9112: exactly three request-line tokens,
/// HTTP/1.0|1.1 only, no obsolete line folding or whitespace in a field
/// name), a request Transfer-Encoding is a 501, and a duplicate or
/// non-digit Content-Length is a 400 — lenient parsing behind a strict proxy
/// is a request-smuggling desync.
class HttpRequestParser {
 public:
  explicit HttpRequestParser(size_t max_header_bytes);

  enum class Phase { kHead, kHeadDone, kBody, kComplete, kSinkAborted, kError };

  /// Appends raw bytes from the socket. Call Step() afterwards.
  void Feed(std::string_view data);

  /// Advances as far as the buffered bytes allow and returns the phase.
  /// kHead / kBody mean "need more bytes"; the pausing phases are described
  /// above. Calling Step() again in a pausing phase without the required
  /// caller action is an error (checked).
  Phase Step();

  /// Buffer the body into request().body, refusing declared lengths over
  /// `max_body_bytes` (moves to kError with the shared 413). Only valid in
  /// kHeadDone.
  void BeginBufferedBody(size_t max_body_bytes);

  /// Stream the body into `sink` (not owned; must outlive the parser or be
  /// detached via ResetForNextRequest). Declared lengths over
  /// `max_body_bytes` move to kError with the shared 413 before any byte is
  /// fed. Only valid in kHeadDone.
  void BeginStreamedBody(HttpBodySink* sink, size_t max_body_bytes);

  Phase phase() const { return phase_; }
  HttpRequest& request() { return request_; }
  size_t content_length() const { return content_length_; }
  HttpBodySink* sink() const { return sink_; }
  const HttpResponse& error_response() const { return error_; }

  /// True when any bytes of a next request have arrived — decides whether an
  /// idle timeout is a silent close or a 408.
  bool has_partial_input() const { return !buffer_.empty() || phase_ != Phase::kHead; }

  /// Re-arms for the next pipelined request, keeping unconsumed bytes.
  void ResetForNextRequest();

 private:
  size_t max_header_bytes_;
  Phase phase_ = Phase::kHead;
  std::string buffer_;
  size_t scanned_ = 0;  // first index of buffer_ not yet scanned for CRLFCRLF
  HttpRequest request_;
  size_t content_length_ = 0;
  size_t body_consumed_ = 0;
  size_t body_cap_ = 0;
  HttpBodySink* sink_ = nullptr;
  bool body_mode_chosen_ = false;
  HttpResponse error_;
};

}  // namespace reptile

#endif  // REPTILE_NET_HTTP_CODEC_H_
