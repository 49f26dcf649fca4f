// Transport-agnostic HTTP message types shared by the epoll reactor front
// end (net/reactor_server.h) and the in-tree client. The routing layer
// (server/service.h) speaks only these types, so it can be called in
// process — as the tests do to get reference bytes — exactly as the front
// end calls it.
//
// Bodies travel two ways:
//  * Buffered (the default): HttpRequest::body / HttpResponse::body hold the
//    complete bytes.
//  * Streamed: a response may carry a pull provider (`body_stream`) that the
//    front end drains chunk by chunk (Transfer-Encoding: chunked on the
//    wire for HTTP/1.1; concatenated into an identity body for HTTP/1.0
//    clients — the reassembled bytes are identical either way), and a
//    request may be fed incrementally into an HttpBodySink so a multi-GB
//    upload never materializes in one string.

#ifndef REPTILE_NET_HTTP_MESSAGE_H_
#define REPTILE_NET_HTTP_MESSAGE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace reptile {

/// One parsed request. Header names are lowercased at parse time (HTTP
/// header names are case-insensitive); values keep their bytes.
struct HttpRequest {
  std::string method;        // e.g. "GET", "POST" (any token accepted)
  std::string target;        // request-target as received ("/v1/view?x=1")
  std::string path;          // target up to '?'
  std::string query;         // after '?', possibly empty
  std::string http_version;  // "HTTP/1.1" or "HTTP/1.0"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;          // empty while a sink consumes the body instead

  /// First header with the given (lowercase) name, or nullptr.
  const std::string* FindHeader(const std::string& lowercase_name) const;
};

/// What a handler returns; the front end adds Content-Length / Connection /
/// Transfer-Encoding framing headers itself.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  std::vector<std::pair<std::string, std::string>> extra_headers;

  // Optional streamed body: when set, `body` must be empty and the front end
  // pulls pieces until the provider returns false (chunked on the wire for
  // HTTP/1.1). The provider is called from transport threads, one call at a
  // time, never concurrently; it must tolerate being dropped without being
  // drained (client vanished mid-response). The concatenation of every piece
  // is the logical body — byte-identical to what a buffered response would
  // have carried.
  std::function<bool(std::string* piece)> body_stream;

  static HttpResponse Json(int status, std::string body) {
    HttpResponse response;
    response.status = status;
    response.body = std::move(body);
    return response;
  }
};

/// Incremental consumer for a streamed request body (the dataset-upload
/// path). The front end feeds body bytes as they arrive and calls Finish()
/// exactly once when the declared Content-Length has been consumed — or
/// after Append returned false (the sink aborted: oversized, parse failure,
/// unauthorized), in which case the remaining body is discarded, Finish's
/// response is written, and the connection closes. If the peer vanishes
/// mid-body the sink is simply destroyed without Finish.
class HttpBodySink {
 public:
  virtual ~HttpBodySink() = default;

  /// Consume the next chunk. Return false to abort the upload: the front end
  /// stops feeding, asks Finish() for the (error) response, and closes.
  virtual bool Append(std::string_view chunk) = 0;

  /// The response to send. `complete` is true when every declared body byte
  /// was fed, false when the upload was aborted by Append.
  virtual HttpResponse Finish(bool complete) = 0;
};

/// Asks the routing layer whether a just-parsed request head should have its
/// body streamed: return a sink to stream, nullptr to buffer the body into
/// HttpRequest::body as usual. `head.body` is empty at this point.
using HttpStreamFactory =
    std::function<std::unique_ptr<HttpBodySink>(const HttpRequest& head)>;

/// The reason phrase for a status code ("OK", "Not Found", ...).
const char* HttpReasonPhrase(int status);

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

}  // namespace reptile

#endif  // REPTILE_NET_HTTP_MESSAGE_H_
