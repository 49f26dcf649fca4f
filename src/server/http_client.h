// Minimal blocking HTTP/1.1 client over POSIX sockets — just enough to drive
// the server from loopback integration tests and benchmarks without an
// external dependency. Requests and responses are framed by Content-Length;
// a response carrying a Transfer-Encoding is a kParseError and drops the
// connection. Keep-alive: one TCP connection is reused across requests and
// transparently re-established when the server closes it.
//
// Not a general-purpose client: no TLS, no redirects, no request
// pipelining. A client instance is single-threaded; concurrent test traffic
// uses one client per thread.

#ifndef REPTILE_SERVER_HTTP_CLIENT_H_
#define REPTILE_SERVER_HTTP_CLIENT_H_

#include <string>
#include <utility>
#include <vector>

#include "api/status.h"

namespace reptile {

struct HttpClientResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;  // names lowercased
  std::string body;

  const std::string* FindHeader(const std::string& lowercase_name) const;
};

class HttpClient {
 public:
  HttpClient(std::string host, int port);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// kIoError when the server is unreachable or drops the connection,
  /// kParseError when the response is not well-formed HTTP or is not framed
  /// by Content-Length.
  Result<HttpClientResponse> Get(const std::string& path);
  Result<HttpClientResponse> Post(const std::string& path, const std::string& body,
                                  const std::string& content_type = "application/json");
  Result<HttpClientResponse> Delete(const std::string& path);

  /// Adds a header to every subsequent request — e.g.
  /// SetHeader("Authorization", "Bearer tok"). Setting a name again replaces
  /// it; an empty value removes it.
  void SetHeader(const std::string& name, const std::string& value);

  /// Bounds connect(), every socket read, and every socket write of
  /// subsequent requests to `timeout_ms` each (0 restores the default:
  /// block forever). A deadline miss surfaces as kDeadlineExceeded — distinct
  /// from kIoError so the load generator can count timeouts separately from
  /// dropped connections — and always tears down the connection: the reply
  /// may still arrive later, and reusing the socket would desync request and
  /// response. Applies from the next Connect(), so callers normally set it
  /// before the first request.
  void SetTimeoutMs(int timeout_ms);

  /// Sends raw bytes on a fresh connection and returns everything the server
  /// writes until it closes — for tests that need to speak *malformed* HTTP
  /// (the framing-error surface, which Get/Post can't produce).
  Result<std::string> SendRaw(const std::string& bytes);

 private:
  Result<HttpClientResponse> Request(const std::string& method, const std::string& path,
                                     const std::string& body,
                                     const std::string& content_type);
  Status Connect();
  void Disconnect();

  std::string host_;
  int port_;
  int timeout_ms_ = 0;
  int fd_ = -1;
  std::vector<std::pair<std::string, std::string>> default_headers_;
};

}  // namespace reptile

#endif  // REPTILE_SERVER_HTTP_CLIENT_H_
